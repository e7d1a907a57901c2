package orderstat

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
)

// treeKeys returns the tree's keys by a quiescent in-order walk.
func treeKeys(tree *core.Tree) []uint64 {
	var ks []uint64
	tree.Range(0, keys.Map(keys.MaxUser), func(u uint64) bool {
		ks = append(ks, u)
		return true
	})
	return ks
}

// checkSummary verifies s against the sorted reference keys: the block
// invariants, then every query shape at every block boundary.
func checkSummary(t *testing.T, s *Summary, ref []uint64) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	prefix := make([]int64, len(ref)+1)
	for i, u := range ref {
		prefix[i+1] = prefix[i] + keys.Unmap(u)
	}
	n := 0
	for b, blk := range s.blocks {
		if len(blk.keys) == 0 || len(blk.keys) >= 2*blockSize {
			t.Fatalf("block %d holds %d keys, want 1..%d", b, len(blk.keys), 2*blockSize-1)
		}
		if blk.count != n || blk.sum != prefix[n] || blk.last != blk.keys[len(blk.keys)-1] {
			t.Fatalf("block %d index entry (count %d, sum %d, last %#x) disagrees with its keys", b, blk.count, blk.sum, blk.last)
		}
		if !slices.Equal(blk.keys, ref[n:n+len(blk.keys)]) {
			t.Fatalf("block %d keys differ from the reference", b)
		}
		n += len(blk.keys)
	}
	if s.total != prefix[len(ref)] {
		t.Fatalf("total = %d, want %d", s.total, prefix[len(ref)])
	}
	var visited []uint64
	s.Visit(0, ^uint64(0), func(u uint64) bool { visited = append(visited, u); return true })
	if !slices.Equal(visited, ref) {
		t.Fatalf("Visit yielded %d keys, want the %d reference keys", len(visited), len(ref))
	}
	rank := func(u uint64) int {
		i, _ := slices.BinarySearch(ref, u)
		return i
	}
	// Every boundary: the first and last key of each block, and the keys
	// just outside them, as ranks, selections and range endpoints.
	var bounds []uint64
	for _, blk := range s.blocks {
		bounds = append(bounds, blk.keys[0]-1, blk.keys[0], blk.last, blk.last+1)
	}
	rng := rand.New(rand.NewSource(int64(len(ref))))
	for _, lo := range bounds {
		if got, want := s.Rank(lo), rank(lo); got != want {
			t.Fatalf("Rank(%#x) = %d, want %d", lo, got, want)
		}
		if i := rank(lo); i < len(ref) {
			if got, ok := s.Select(i); !ok || got != ref[i] {
				t.Fatalf("Select(%d) = (%#x, %v), want %#x", i, got, ok, ref[i])
			}
		}
		hi := bounds[rng.Intn(len(bounds))]
		if hi < lo {
			lo, hi = hi, lo
		}
		a, b := rank(lo), rank(hi+1)
		if got := s.Count(lo, hi); got != b-a {
			t.Fatalf("Count(%#x, %#x) = %d, want %d", lo, hi, got, b-a)
		}
		if got := s.Sum(lo, hi); got != prefix[b]-prefix[a] {
			t.Fatalf("Sum(%#x, %#x) = %d, want %d", lo, hi, got, prefix[b]-prefix[a])
		}
	}
	if _, ok := s.Select(len(ref)); ok {
		t.Fatal("Select(Len) reported ok")
	}
}

// TestIncrementalWaveMatchesWalk is the wave's property test: rounds of
// random single and batched mutations from concurrent writers, with exact
// queries running waves the whole time; once the writers quiesce, the
// incremental wave's summary must equal what a full walk builds.
func TestIncrementalWaveMatchesWalk(t *testing.T) {
	tree, ix := newTracked(t)
	const span = 1 << 14
	rng := rand.New(rand.NewSource(5))
	for _, k := range rng.Perm(span) {
		if k%2 == 0 {
			tree.Insert(keys.Map(int64(k)))
		}
	}
	checkSummary(t, ix.Acquire(true, 0), treeKeys(tree))

	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				h := tree.NewHandle()
				defer h.Close()
				r := rand.New(rand.NewSource(seed))
				batch := make([]uint64, 16)
				out, errs := make([]bool, 16), make([]error, 16)
				for op := 0; op < 100; op++ {
					k := keys.Map(int64(r.Intn(span)))
					switch r.Intn(4) {
					case 0:
						h.Insert(k)
					case 1:
						h.Delete(k)
					case 2:
						for i := range batch {
							batch[i] = keys.Map(int64(r.Intn(span)))
						}
						h.InsertBatch(batch, out, errs)
					default:
						for i := range batch {
							batch[i] = keys.Map(int64(r.Intn(span)))
						}
						h.DeleteBatch(batch, out)
					}
				}
			}(int64(round*2 + w))
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
	query:
		for {
			select {
			case <-done:
				break query
			default:
				ix.Acquire(true, 0)
			}
		}
		// The quiesced wave may walk, if the writers ran far ahead of the
		// last concurrent wave; a few more mutations then make the next one
		// incremental on top of the concurrently built chain.
		s := ix.Acquire(true, 0)
		ref := treeKeys(tree)
		checkSummary(t, s, ref)
		before := ix.Stats()
		for i := 0; i < 8; i++ {
			k := keys.Map(int64(rng.Intn(span)))
			if !tree.Insert(k) {
				tree.Delete(k)
			}
		}
		s = ix.Acquire(true, 0)
		if st := ix.Stats(); st.FullWaves != before.FullWaves || st.IncrementalWaves != before.IncrementalWaves+1 {
			t.Fatalf("round %d: the wave after 8 mutations was not incremental: %+v", round, st)
		}
		ref = treeKeys(tree)
		checkSummary(t, s, ref)

		// A full walk over a tree holding the same keys builds the same
		// summary.
		checkSummary(t, walkedSummary(t, ref), ref)
	}
}

// walkedSummary returns the first — full-walk — wave's summary of a fresh
// tree holding ks.
func walkedSummary(t *testing.T, ks []uint64) *Summary {
	t.Helper()
	tree := core.New(core.Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	defer tree.Close()
	for _, u := range ks {
		tree.Insert(u)
	}
	ix, err := New(tree)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := ix.Acquire(true, 0)
	if st := ix.Stats(); st.FullWaves != 1 {
		t.Fatalf("first wave was not a full walk: %+v", st)
	}
	return s
}

// TestRingOverflowFallsBackToWalk: a writer that outruns the dirty ring
// loses keys; the next wave must notice and walk, and stay exact.
func TestRingOverflowFallsBackToWalk(t *testing.T) {
	tree, ix := newTracked(t)
	h := tree.NewHandle()
	defer h.Close()
	for _, i := range rand.New(rand.NewSource(1)).Perm(50000) {
		h.Insert(keys.Map(int64(2 * i)))
	}
	ix.Acquire(true, 0)
	before := ix.Stats()
	// Far more mutations than one ring holds, but few enough distinct keys
	// that, without the loss, the wave would stay incremental.
	for i := 0; i < 3000; i++ {
		k := keys.Map(int64(1 + 2*(i%1000)))
		if !h.Insert(k) {
			h.Delete(k)
		}
	}
	s := ix.Acquire(true, 0)
	if st := ix.Stats(); st.FullWaves != before.FullWaves+1 || st.FallbackWaves != before.FallbackWaves+1 || st.IncrementalWaves != before.IncrementalWaves {
		t.Fatalf("overflowed wave: %+v, want one more full wave after %+v", st, before)
	}
	checkSummary(t, s, treeKeys(tree))

	// The ring records again: the next small change is incremental.
	h.Delete(keys.Map(0))
	s = ix.Acquire(true, 0)
	if st := ix.Stats(); st.IncrementalWaves != before.IncrementalWaves+1 {
		t.Fatalf("wave after recovery was not incremental: %+v", st)
	}
	checkSummary(t, s, treeKeys(tree))
}

// TestRetiredHandleKeysReachWave: keys mutated through handles that were
// closed, or dropped and finalized, before any wave drained them are
// handed over by Retire; the incremental wave still sees them.
func TestRetiredHandleKeysReachWave(t *testing.T) {
	tree, ix := newTracked(t)
	for i := 0; i < 4000; i++ {
		tree.Insert(keys.Map(int64(i)))
	}
	ix.Acquire(true, 0)
	before := ix.Stats()

	h := tree.NewHandle()
	h.Delete(keys.Map(10))
	h.Close()
	func() {
		dropped := tree.NewHandle()
		dropped.Delete(keys.Map(20))
	}()
	tree.Delete(keys.Map(30)) // a pooled handle, dropped at a later GC
	for i := 0; i < 5; i++ {
		runtime.GC()
	}

	s := ix.Acquire(true, 0)
	if st := ix.Stats(); st.FullWaves != before.FullWaves || st.DirtyKeys != before.DirtyKeys+3 {
		t.Fatalf("wave after retirements: %+v, want incremental with 3 dirty keys after %+v", st, before)
	}
	checkSummary(t, s, treeKeys(tree))
	if s.Len() != 3997 {
		t.Fatalf("Len = %d, want 3997", s.Len())
	}
}

// TestWaveSplitsAndDropsBlocks: one wave that doubles a block splits it,
// and one that deletes every key of a block drops it; the merge of short
// runs keeps blocks from shrinking to slivers.
func TestWaveSplitsAndDropsBlocks(t *testing.T) {
	tree, ix := newTracked(t)
	const blocks = 64
	for i := 0; i < blocks*blockSize; i++ {
		tree.Insert(keys.Map(int64(2 * i))) // even keys: the walk cuts blocks of exactly B
	}
	s := ix.Acquire(true, 0)
	if len(s.blocks) != blocks {
		t.Fatalf("walk built %d blocks, want %d", len(s.blocks), blocks)
	}

	// Fill block 3's gaps: 64 odd keys grow it to 2B, which splits it.
	target := s.blocks[3]
	for _, u := range target.keys {
		tree.Insert(u + 1)
	}
	s = ix.Acquire(true, 0)
	checkSummary(t, s, treeKeys(tree))
	if len(s.blocks) != blocks+1 {
		t.Fatalf("after doubling block 3: %d blocks, want %d", len(s.blocks), blocks+1)
	}

	// Empty the block after the split pair: it is dropped.
	victim := s.blocks[6]
	for _, u := range victim.keys {
		tree.Delete(u)
	}
	s = ix.Acquire(true, 0)
	checkSummary(t, s, treeKeys(tree))
	if len(s.blocks) != blocks {
		t.Fatalf("after emptying a block: %d blocks, want %d", len(s.blocks), blocks)
	}
	for _, blk := range s.blocks {
		if blk.keys[0] <= victim.last && blk.last >= victim.keys[0] {
			t.Fatal("the emptied block's range still has a block")
		}
	}

	// Shrinking a block below B/2 merges it into its right neighbour.
	small := s.blocks[10]
	for _, u := range small.keys[:len(small.keys)-4] {
		tree.Delete(u)
	}
	s = ix.Acquire(true, 0)
	checkSummary(t, s, treeKeys(tree))
	if len(s.blocks) != blocks-1 {
		t.Fatalf("after shrinking a block to 4 keys: %d blocks, want %d", len(s.blocks), blocks-1)
	}
	if st := ix.Stats(); st.FullWaves != 1 {
		t.Fatalf("%d full waves, want only the first", st.FullWaves)
	}
}
