package orderstat

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
)

func newTracked(t *testing.T) (*core.Tree, *Index) {
	t.Helper()
	tree := core.New(core.Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	ix, err := New(tree)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { ix.Close(); tree.Close() })
	return tree, ix
}

func TestNewRequiresTrackDirty(t *testing.T) {
	tree := core.New(core.Config{Capacity: 1 << 10})
	defer tree.Close()
	if _, err := New(tree); err != ErrNotTracked {
		t.Fatalf("New on untracked tree: err = %v, want ErrNotTracked", err)
	}
}

// TestOneIndexPerTree: a second index would drain keys the first needs,
// so New refuses it until the first is closed.
func TestOneIndexPerTree(t *testing.T) {
	tree, ix := newTracked(t)
	if _, err := New(tree); err != ErrIndexed {
		t.Fatalf("second New: err = %v, want ErrIndexed", err)
	}
	tree.Insert(keys.Map(1))
	ix.Acquire(true, 0)
	ix.Close()
	ix2, err := New(tree)
	if err != nil {
		t.Fatalf("New after Close: %v", err)
	}
	defer ix2.Close()
	tree.Insert(keys.Map(2))
	if s := ix2.Acquire(true, 0); s.Len() != 2 {
		t.Fatalf("new index's summary holds %d keys, want 2", s.Len())
	}
}

// TestSummaryAgainstBruteForce cross-checks every query shape against a
// sorted reference slice over random insert/delete churn.
func TestSummaryAgainstBruteForce(t *testing.T) {
	tree, ix := newTracked(t)
	rng := rand.New(rand.NewSource(7))
	ref := map[int64]bool{}
	for step := 0; step < 50; step++ {
		for i := 0; i < 200; i++ {
			k := int64(rng.Intn(5000))
			if rng.Intn(3) == 0 {
				if tree.Delete(keys.Map(k)) != ref[k] {
					t.Fatalf("Delete(%d) disagreed with reference", k)
				}
				delete(ref, k)
			} else {
				if tree.Insert(keys.Map(k)) != !ref[k] {
					t.Fatalf("Insert(%d) disagreed with reference", k)
				}
				ref[k] = true
			}
		}
		sorted := make([]int64, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		s := ix.Acquire(true, 0)
		if s.Len() != len(sorted) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(sorted))
		}
		for trial := 0; trial < 20; trial++ {
			k := int64(rng.Intn(5200))
			wantRank := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
			if got := s.Rank(keys.Map(k)); got != wantRank {
				t.Fatalf("step %d: Rank(%d) = %d, want %d", step, k, got, wantRank)
			}

			lo := int64(rng.Intn(5200)) - 100
			hi := lo + int64(rng.Intn(2000))
			wantCount, wantSum := 0, int64(0)
			for _, v := range sorted {
				if v >= lo && v <= hi {
					wantCount++
					wantSum += v
				}
			}
			if got := s.Count(keys.Map(lo), keys.Map(hi)); got != wantCount {
				t.Fatalf("step %d: Count(%d,%d) = %d, want %d", step, lo, hi, got, wantCount)
			}
			if got := s.Sum(keys.Map(lo), keys.Map(hi)); got != wantSum {
				t.Fatalf("step %d: Sum(%d,%d) = %d, want %d", step, lo, hi, got, wantSum)
			}

			if len(sorted) > 0 {
				i := rng.Intn(len(sorted))
				u, ok := s.Select(i)
				if !ok || keys.Unmap(u) != sorted[i] {
					t.Fatalf("step %d: Select(%d) = (%d,%v), want %d", step, i, keys.Unmap(u), ok, sorted[i])
				}
			}
			if _, ok := s.Select(len(sorted)); ok {
				t.Fatalf("step %d: Select(len) reported ok", step)
			}

			got := []int64{}
			s.Visit(keys.Map(lo), keys.Map(hi), func(u uint64) bool {
				got = append(got, keys.Unmap(u))
				return true
			})
			if len(got) != wantCount {
				t.Fatalf("step %d: Visit yielded %d keys, want %d", step, len(got), wantCount)
			}
		}
	}
}

// TestExactReusesCleanSummary pins the caching contract: with no
// mutations between queries, one wave serves all of them; any mutation
// forces exactly one more wave.
func TestExactReusesCleanSummary(t *testing.T) {
	tree, ix := newTracked(t)
	for i := 0; i < 100; i++ {
		tree.Insert(keys.Map(int64(i)))
	}
	s1 := ix.Acquire(true, 0)
	w := ix.Waves()
	for i := 0; i < 10; i++ {
		if got := ix.Acquire(true, 0); got != s1 {
			t.Fatalf("quiescent exact query %d rebuilt the summary", i)
		}
	}
	if ix.Waves() != w {
		t.Fatalf("quiescent exact queries ran %d extra waves", ix.Waves()-w)
	}
	tree.Delete(keys.Map(int64(3)))
	s2 := ix.Acquire(true, 0)
	if s2 == s1 || s2.Len() != 99 {
		t.Fatalf("exact query after delete served the stale summary (len %d)", s2.Len())
	}
}

// TestBoundedStaleBound asserts the advertised error bound: a summary
// served under BoundedStale(m) lags the live tree by at most m completed
// mutations, so any count differs from exact by at most m.
func TestBoundedStaleBound(t *testing.T) {
	tree, ix := newTracked(t)
	const n = 1000
	for i := 0; i < n; i++ {
		tree.Insert(keys.Map(int64(i)))
	}
	exact := ix.Acquire(true, 0)
	if exact.Len() != n {
		t.Fatalf("exact Len = %d, want %d", exact.Len(), n)
	}
	const budget = 64
	// Mutate fewer than budget keys: the stale summary must still be served
	// (no wave), and its counts sit within budget of the live truth.
	w := ix.Waves()
	for i := 0; i < budget-1; i++ {
		tree.Insert(keys.Map(int64(n + i)))
	}
	stale := ix.Acquire(false, budget)
	if ix.Waves() != w {
		t.Fatalf("BoundedStale(%d) refreshed with only %d mutations pending", budget, budget-1)
	}
	liveCount := n + budget - 1
	if diff := liveCount - stale.Len(); diff < 0 || diff > budget {
		t.Fatalf("stale count %d vs live %d: error %d exceeds budget %d", stale.Len(), liveCount, diff, budget)
	}
	// Two more mutations push the lag to budget+1: the next acquire must
	// refresh (lag <= budget is within contract, budget+1 is not).
	tree.Insert(keys.Map(int64(n + budget - 1)))
	tree.Insert(keys.Map(int64(n + budget)))
	fresh := ix.Acquire(false, budget)
	if ix.Waves() == w {
		t.Fatalf("BoundedStale(%d) served a summary %d mutations stale", budget, budget+1)
	}
	if fresh.Len() != n+budget+1 {
		t.Fatalf("refreshed Len = %d, want %d", fresh.Len(), n+budget+1)
	}
}

// TestExactUnderConcurrentChurn runs exact queries against concurrent
// insert-only writers and checks the monotone window property: an exact
// count over the insert region can never fall below the number of inserts
// acked before the query began, nor exceed the number issued by its end.
func TestExactUnderConcurrentChurn(t *testing.T) {
	tree, ix := newTracked(t)
	const total = 20000
	var acked sync.Map
	var wg sync.WaitGroup
	done := make(chan struct{})
	var ackedCount, issued int64
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		h := tree.NewHandle()
		defer h.Close()
		for i := int64(0); i < total; i++ {
			mu.Lock()
			issued++
			mu.Unlock()
			h.Insert(keys.Map(i))
			mu.Lock()
			ackedCount++
			mu.Unlock()
			acked.Store(i, true)
		}
	}()
	for {
		select {
		case <-done:
			wg.Wait()
			s := ix.Acquire(true, 0)
			if got := s.Count(keys.Map(0), keys.Map(total-1)); got != total {
				t.Fatalf("quiescent exact count = %d, want %d", got, total)
			}
			return
		default:
		}
		mu.Lock()
		lowerBound := ackedCount
		mu.Unlock()
		s := ix.Acquire(true, 0)
		got := int64(s.Count(keys.Map(0), keys.Map(total-1)))
		mu.Lock()
		upperBound := issued
		mu.Unlock()
		if got < lowerBound || got > upperBound {
			t.Fatalf("exact count %d outside monotone window [%d, %d]", got, lowerBound, upperBound)
		}
	}
}
