package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	bst "repro"
)

// aggregateRound checks that Exact-mode order-statistics queries are
// linearizable against concurrent inserts AND deletes, on both the single
// tree and the sharded forest (which merges per-shard summaries).
//
// The checker brackets every query: each worker owns a disjoint key block
// and tracks its keys locally, so it knows before issuing whether a
// mutation will succeed; guaranteed-successful mutations bump an issued
// counter before the call and an acked counter after it. A query reads
// acked counters at t0 (before issuing) and issued counters at t1 (after
// returning). Any linearization point t of the query lies in [t0, t1], so
//
//	count(t) ≥ insAcked(t0) − delIssued(t1)   (completed ⇒ linearized;
//	count(t) ≤ insIssued(t1) − delAcked(t0)    linearized ⇒ issued)
//
// — every Exact Rank/CountRange answer must land inside that window, with
// no quiescing. A final quiescent phase then checks exact agreement
// against a fresh Scan (count, rank, and spot-checked Select). Each
// tree's refresh telemetry is added to waves, so the run can show that
// both wave kinds — incremental and a fallback full walk (one that is not
// a tree's first wave) — were exercised.
func aggregateRound(workers int, seed uint64, waves *bst.AggregateStats) error {
	for _, sharded := range []bool{false, true} {
		if err := aggregateConfigRound(workers, seed, sharded, waves); err != nil {
			name := "single"
			if sharded {
				name = "sharded"
			}
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func aggregateConfigRound(workers int, seed uint64, sharded bool, waves *bst.AggregateStats) error {
	const (
		blockSize = 4096 // keys per worker block
		opsPerW   = 20000
		queries   = 400
	)
	span := int64(workers) * blockSize
	opts := []bst.Option{
		bst.WithOrderStatistics(), bst.WithReclamation(), bst.WithCapacity(1 << 20),
	}
	if sharded {
		opts = append(opts, bst.WithShards(4), bst.WithShardRange(0, span))
	}
	tr := bst.New(opts...)
	defer tr.Close()
	defer func() {
		st := tr.Stats().Aggregates
		waves.IncrementalWaves += st.IncrementalWaves
		waves.FullWaves += st.FullWaves
		waves.FallbackWaves += st.FallbackWaves
		waves.DirtyKeys += st.DirtyKeys
		waves.ExactHits += st.ExactHits
	}()

	var insIssued, insAcked, delIssued, delAcked atomic.Int64
	var wg sync.WaitGroup
	var workerErr atomic.Value
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(w)))
			lo := int64(w) * blockSize
			present := make(map[int64]bool, blockSize)
			for i := 0; i < opsPerW; i++ {
				k := lo + rng.Int63n(blockSize)
				if !present[k] {
					insIssued.Add(1)
					if !tr.Insert(k) {
						workerErr.Store(fmt.Errorf("insert of absent owned key %d returned false", k))
						return
					}
					insAcked.Add(1)
					present[k] = true
				} else {
					delIssued.Add(1)
					if !tr.Delete(k) {
						workerErr.Store(fmt.Errorf("delete of present owned key %d returned false", k))
						return
					}
					delAcked.Add(1)
					present[k] = false
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	qrng := rand.New(rand.NewSource(int64(seed) * 7919))
	checked := 0
	for checked < queries {
		select {
		case <-done:
		default:
		}
		// Whole-span count via CountRange and via Rank — both must sit in
		// the bracket. Sub-windows can't be bracketed by global counters,
		// so the concurrent check uses the full span; sub-window agreement
		// is the quiescent phase's job.
		aIns, aDel := insAcked.Load(), delAcked.Load()
		n, err := tr.CountRange(0, span, bst.Exact)
		if err != nil {
			return err
		}
		r, err := tr.Rank(span+1, bst.Exact)
		if err != nil {
			return err
		}
		iIns, iDel := insIssued.Load(), delIssued.Load()
		lo, hi := aIns-iDel, iIns-aDel
		if int64(n) < lo || int64(n) > hi {
			return fmt.Errorf("exact CountRange = %d outside linearizability window [%d, %d]", n, lo, hi)
		}
		if int64(r) < lo || int64(r) > hi {
			return fmt.Errorf("exact Rank = %d outside linearizability window [%d, %d]", r, lo, hi)
		}
		checked++
		_ = qrng
	}
	wg.Wait()
	if e := workerErr.Load(); e != nil {
		return e.(error)
	}

	// Quiescent: aggregate answers agree exactly with a fresh scan.
	var keys []int64
	tr.Scan(0, span, func(k int64) bool { keys = append(keys, k); return true })
	n, err := tr.CountRange(0, span, bst.Exact)
	if err != nil {
		return err
	}
	if n != len(keys) {
		return fmt.Errorf("quiescent CountRange = %d, scan found %d", n, len(keys))
	}
	if net := insAcked.Load() - delAcked.Load(); int64(n) != net {
		return fmt.Errorf("quiescent count %d != acked net %d", n, net)
	}
	for t := 0; t < 32 && len(keys) > 0; t++ {
		i := qrng.Intn(len(keys))
		got, err := tr.Select(i, bst.Exact)
		if err != nil {
			return err
		}
		if got != keys[i] {
			return fmt.Errorf("quiescent Select(%d) = %d, scan says %d", i, got, keys[i])
		}
		mid := keys[i]
		r, err := tr.Rank(mid, bst.Exact)
		if err != nil {
			return err
		}
		if r != i {
			return fmt.Errorf("quiescent Rank(%d) = %d, scan says %d", mid, r, i)
		}
	}
	return nil
}
