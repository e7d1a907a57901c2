package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/keys"
)

// TestDirtyCountsCompletedMutations pins the orderstat soundness anchor:
// every successful insert/delete — point or batched, helped or not — is
// counted by the time its call returns, and failed/no-op calls are not.
func TestDirtyCountsCompletedMutations(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	if d == nil {
		t.Fatal("Dirty() = nil on a TrackDirty tree")
	}

	if !tr.Insert(keys.Map(1)) || d.Total() != 1 {
		t.Fatalf("after Insert(1): total = %d, want 1", d.Total())
	}
	if tr.Insert(keys.Map(1)) || d.Total() != 1 {
		t.Fatalf("duplicate insert bumped: total = %d, want 1", d.Total())
	}
	if tr.Delete(keys.Map(2)) || d.Total() != 1 {
		t.Fatalf("absent delete bumped: total = %d, want 1", d.Total())
	}
	if !tr.Delete(keys.Map(1)) || d.Total() != 2 {
		t.Fatalf("after Delete(1): total = %d, want 2", d.Total())
	}

	ks := make([]uint64, 8)
	for i := range ks {
		ks[i] = keys.Map(int64(10 + i))
	}
	out := make([]bool, len(ks))
	errs := make([]error, len(ks))
	tr.InsertBatch(ks, out, errs)
	if d.Total() != 2+8 {
		t.Fatalf("after InsertBatch: total = %d, want 10", d.Total())
	}
	tr.InsertBatch(ks, out, errs) // all duplicates: no bumps
	if d.Total() != 10 {
		t.Fatalf("duplicate batch bumped: total = %d, want 10", d.Total())
	}
	tr.DeleteBatch(ks[:4], out[:4])
	if d.Total() != 14 {
		t.Fatalf("after DeleteBatch: total = %d, want 14", d.Total())
	}
}

// TestDirtySurvivesHandleChurn checks the shard lifecycle: closing a
// handle folds its counts into the base total rather than dropping them.
func TestDirtySurvivesHandleChurn(t *testing.T) {
	tr := New(Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close() // retire mid-test: counts must fold into base
			for i := 0; i < each; i++ {
				h.Insert(keys.Map(int64(w*each + i)))
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Dirty().Total(); got != workers*each {
		t.Fatalf("total after handle churn = %d, want %d", got, workers*each)
	}
}

// drainSorted drains d and returns the keys sorted, the total and the
// loss flag.
func drainSorted(d *DirtyCounter) ([]uint64, uint64, bool) {
	ks, total, lost := d.Drain(nil)
	slices.Sort(ks)
	return ks, total, lost
}

// TestDirtyDrainReturnsMutatedKeys: a drain returns the key of exactly
// the mutations counted since the previous drain — point and batched,
// inserts and deletes, repeats included, no-ops excluded.
func TestDirtyDrainReturnsMutatedKeys(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	h := tr.NewHandle()
	defer h.Close()

	h.Insert(keys.Map(5))
	h.Insert(keys.Map(5)) // no-op
	h.Delete(keys.Map(5))
	h.Delete(keys.Map(6)) // no-op
	ks := []uint64{keys.Map(3), keys.Map(1), keys.Map(2)}
	h.InsertBatch(ks, make([]bool, 3), make([]error, 3))
	h.DeleteBatch(ks[:1], make([]bool, 1))
	got, total, lost := drainSorted(d)
	want := []uint64{keys.Map(1), keys.Map(2), keys.Map(3), keys.Map(3), keys.Map(5), keys.Map(5)}
	if lost || total != 6 || !slices.Equal(got, want) {
		t.Fatalf("drain = (%v, %d, %v), want (%v, 6, false)", got, total, lost, want)
	}
	if got, total, lost := drainSorted(d); len(got) != 0 || total != 6 || lost {
		t.Fatalf("second drain = (%v, %d, %v), want nothing new", got, total, lost)
	}
	if d.Total() != 6 {
		t.Fatalf("Total = %d, want 6", d.Total())
	}
}

// TestDirtyRingOverflowReportsLoss: a writer that outruns its drainer
// keeps counting but reports the lost keys on the next drain, and its ring
// records again afterwards.
func TestDirtyRingOverflowReportsLoss(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	h := tr.NewHandle()
	defer h.Close()
	for i := 0; i < dirtyRing; i++ {
		h.Insert(keys.Map(int64(i)))
	}
	if got, total, lost := drainSorted(d); lost || len(got) != dirtyRing || total != dirtyRing {
		t.Fatalf("full ring drain = (%d keys, %d, %v), want (%d, %d, false)", len(got), total, lost, dirtyRing, dirtyRing)
	}
	for i := 0; i < dirtyRing; i++ {
		h.Delete(keys.Map(int64(i)))
	}
	h.Insert(keys.Map(-1)) // one mutation more than the ring holds
	if _, total, lost := d.Drain(nil); !lost || total != 2*dirtyRing+1 {
		t.Fatalf("overflowed drain = (%d, %v), want (%d, true)", total, lost, 2*dirtyRing+1)
	}
	h.Insert(keys.Map(7))
	if got, _, lost := drainSorted(d); lost || !slices.Equal(got, []uint64{keys.Map(7)}) {
		t.Fatalf("drain after overflow = (%v, %v), want ([7], false)", got, lost)
	}
}

// TestDirtyRetireHandsOverKeys: a handle closed — or dropped and
// finalized, as the convenience pool's handles are — with undrained keys
// hands them to the next drain.
func TestDirtyRetireHandsOverKeys(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()

	h := tr.NewHandle()
	h.Insert(keys.Map(1))
	h.Close()
	func() {
		dropped := tr.newHandle(1, true) // like a pooled handle
		dropped.Insert(keys.Map(2))
	}()
	for i := 0; i < 20 && func() bool { d.mu.Lock(); defer d.mu.Unlock(); return len(d.shards) > 0 }(); i++ {
		runtime.GC() // finalizers run asynchronously; a few cycles settle them
	}
	got, total, lost := drainSorted(d)
	if lost || total != 2 || !slices.Equal(got, []uint64{keys.Map(1), keys.Map(2)}) {
		t.Fatalf("drain = (%v, %d, %v), want ([1 2], 2, false)", got, total, lost)
	}
}

// TestDirtyConcurrentDrain races writers against a drainer: every
// mutation's key is drained exactly once and the totals agree. Each
// writer stays within one ring, so no key may be lost whatever the
// interleaving.
func TestDirtyConcurrentDrain(t *testing.T) {
	tr := New(Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	const workers, each = 4, dirtyRing
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close()
			for i := 0; i < each; i++ {
				h.Insert(keys.Map(int64(w*each + i)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	seen := map[uint64]int{}
	var lost bool
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		ks, _, l := d.Drain(nil)
		lost = lost || l
		for _, k := range ks {
			seen[k]++
		}
	}
	ks, total, l := d.Drain(nil)
	for _, k := range ks {
		seen[k]++
	}
	if total != workers*each {
		t.Fatalf("total = %d, want %d", total, workers*each)
	}
	if lost || l {
		t.Fatal("a drain reported lost keys")
	}
	if len(seen) != workers*each {
		t.Fatalf("drained %d distinct keys, want %d", len(seen), workers*each)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %#x drained %d times", k, n)
		}
	}
}

// TestDirtyStaleReadIndexReportsLoss replays a writer racing the drain of
// an exactly full ring: the drain loads n, the writer's next Bump still
// sees the old read index and skips its store, and only then does the
// drain advance r. The ring slot the skipped mutation would have used
// still holds a drained key, so the drain that counts the mutation must
// report the loss rather than hand that stale key back.
func TestDirtyStaleReadIndexReportsLoss(t *testing.T) {
	var d DirtyCounter
	s := d.NewShard()
	for i := uint64(0); i < dirtyRing; i++ {
		s.Bump(i)
	}
	// The first drain, step by step as Drain runs it, with the writer's
	// Bump between its load of n and collect's store of r.
	d.mu.Lock()
	n := s.n.Load()
	s.Bump(dirtyRing) // r still reads 0: the ring looks full, the key is skipped
	d.collect(nil, s, n)
	d.lost = false // whatever this drain reported, the next one must see the skip
	d.mu.Unlock()

	if ks, total, lost := d.Drain(nil); !lost || total != dirtyRing+1 {
		t.Fatalf("drain counting the skipped mutation = (%v, %d, %v), want (_, %d, true)", ks, total, lost, dirtyRing+1)
	}
	s.Bump(7)
	if ks, _, lost := d.Drain(nil); lost || !slices.Equal(ks, []uint64{7}) {
		t.Fatalf("drain after the loss = (%v, %v), want ([7], false)", ks, lost)
	}
}

// TestDirtyClaim: a counter has one drainer at a time.
func TestDirtyClaim(t *testing.T) {
	var d DirtyCounter
	if !d.Claim() {
		t.Fatal("first Claim failed")
	}
	if d.Claim() {
		t.Fatal("second Claim succeeded while the first is held")
	}
	d.Release()
	if !d.Claim() {
		t.Fatal("Claim after Release failed")
	}
}
