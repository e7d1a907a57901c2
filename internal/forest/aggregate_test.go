package forest

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/keys"
)

func newAggForest(t *testing.T, shards int) (*Forest, *Aggregates) {
	t.Helper()
	cfg := Config{Shards: shards, Lo: keys.Map(0), Hi: keys.Map(1 << 20)}
	cfg.Tree.Capacity = 1 << 20
	cfg.Tree.Reclaim = true
	cfg.Tree.TrackDirty = true
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, err := NewAggregates(f)
	if err != nil {
		t.Fatalf("NewAggregates: %v", err)
	}
	t.Cleanup(func() { a.Close(); f.Close() })
	return f, a
}

// TestForestAggregatesMatchBruteForce cross-checks the shard merges —
// rank as prefix-of-whole-shards + in-shard rank, boundary-spanning
// counts and sums, forest-wide select — against a sorted reference.
func TestForestAggregatesMatchBruteForce(t *testing.T) {
	f, a := newAggForest(t, 4)
	rng := rand.New(rand.NewSource(11))
	ref := map[int64]bool{}
	for i := 0; i < 4000; i++ {
		k := int64(rng.Intn(1 << 20))
		if rng.Intn(4) == 0 {
			f.Delete(keys.Map(k))
			delete(ref, k)
		} else {
			f.Insert(keys.Map(k))
			ref[k] = true
		}
	}
	sorted := make([]int64, 0, len(ref))
	for k := range ref {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if got := a.Len(true, 0); got != len(sorted) {
		t.Fatalf("Len = %d, want %d", got, len(sorted))
	}
	for trial := 0; trial < 50; trial++ {
		k := int64(rng.Intn(1 << 20))
		wantRank := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
		if got := a.Rank(keys.Map(k), true, 0); got != wantRank {
			t.Fatalf("Rank(%d) = %d, want %d (key routes to shard %d)",
				k, got, wantRank, f.ShardOf(keys.Map(k)))
		}

		// Ranges sized to span shard boundaries more often than not.
		lo := int64(rng.Intn(1 << 20))
		hi := lo + int64(rng.Intn(1<<19))
		wantCount, wantSum := 0, int64(0)
		for _, v := range sorted {
			if v >= lo && v <= hi {
				wantCount++
				wantSum += v
			}
		}
		if got := a.Count(keys.Map(lo), keys.Map(hi), true, 0); got != wantCount {
			t.Fatalf("Count(%d,%d) = %d, want %d (shards %d..%d)",
				lo, hi, got, wantCount, f.ShardOf(keys.Map(lo)), f.ShardOf(keys.Map(hi)))
		}
		if got := a.Sum(keys.Map(lo), keys.Map(hi), true, 0); got != wantSum {
			t.Fatalf("Sum(%d,%d) = %d, want %d", lo, hi, got, wantSum)
		}

		i := rng.Intn(len(sorted))
		u, ok := a.Select(i, true, 0)
		if !ok || keys.Unmap(u) != sorted[i] {
			t.Fatalf("Select(%d) = (%d,%v), want %d", i, keys.Unmap(u), ok, sorted[i])
		}
	}
	if _, ok := a.Select(len(sorted), true, 0); ok {
		t.Fatal("Select(len) reported ok")
	}

	// The planned visit yields the same sorted stream as a merged Range.
	var viaVisit, viaRange []uint64
	a.Visit(keys.Map(0), keys.Map(1<<20), true, 0, func(u uint64) bool {
		viaVisit = append(viaVisit, u)
		return true
	})
	f.Range(keys.Map(0), keys.Map(1<<20), func(u uint64) bool {
		viaRange = append(viaRange, u)
		return true
	})
	if len(viaVisit) != len(viaRange) {
		t.Fatalf("Visit yielded %d keys, Range %d", len(viaVisit), len(viaRange))
	}
	for i := range viaVisit {
		if viaVisit[i] != viaRange[i] {
			t.Fatalf("Visit[%d] = %d, Range[%d] = %d", i, viaVisit[i], i, viaRange[i])
		}
	}
}

// TestForestAggregatesRequireTrackDirty: one untracked shard fails the
// whole construction (and leaks no walker handles from the built prefix).
func TestForestAggregatesRequireTrackDirty(t *testing.T) {
	cfg := Config{Shards: 2}
	cfg.Tree.Capacity = 1 << 12
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if _, err := NewAggregates(f); err == nil {
		t.Fatal("NewAggregates succeeded without TrackDirty")
	}
}

// TestForestIncrementalWaves churns a 4-shard forest from concurrent
// batched writers while exact aggregates run, then checks the quiesced
// merge against a merged Range and that the shard indexes refreshed
// incrementally — each shard's wave re-resolves only its own dirty keys.
func TestForestIncrementalWaves(t *testing.T) {
	f, a := newAggForest(t, 4)
	rng := rand.New(rand.NewSource(3))
	for _, k := range rng.Perm(1 << 14) {
		f.Insert(keys.Map(int64(k) << 6)) // spread over every shard
	}
	a.Len(true, 0)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := f.NewHandle()
			defer h.Close()
			r := rand.New(rand.NewSource(seed))
			ks := make([]uint64, 64)
			out, errs := make([]bool, 64), make([]error, 64)
			for round := 0; round < 50; round++ {
				for i := range ks {
					ks[i] = keys.Map(int64(r.Intn(1 << 20)))
				}
				if round%2 == 0 {
					h.InsertBatch(ks, out, errs)
				} else {
					h.DeleteBatch(ks, out)
				}
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			a.Count(keys.Map(0), keys.Map(1<<20), true, 0)
		}
	}

	var ref []uint64
	f.Range(keys.Map(0), keys.Map(1<<20), func(u uint64) bool { ref = append(ref, u); return true })
	if got := a.Len(true, 0); got != len(ref) {
		t.Fatalf("Len = %d, want %d", got, len(ref))
	}
	for i := 0; i < len(ref); i += 97 {
		if got := a.Rank(ref[i], true, 0); got != i {
			t.Fatalf("Rank(ref[%d]) = %d", i, got)
		}
		if u, ok := a.Select(i, true, 0); !ok || u != ref[i] {
			t.Fatalf("Select(%d) = (%#x, %v), want %#x", i, u, ok, ref[i])
		}
		j := min(len(ref)-1, i+rng.Intn(4000))
		var sum int64
		for _, u := range ref[i : j+1] {
			sum += keys.Unmap(u)
		}
		if got := a.Count(ref[i], ref[j], true, 0); got != j-i+1 {
			t.Fatalf("Count(ref[%d], ref[%d]) = %d, want %d", i, j, got, j-i+1)
		}
		if got := a.Sum(ref[i], ref[j], true, 0); got != sum {
			t.Fatalf("Sum(ref[%d], ref[%d]) = %d, want %d", i, j, got, sum)
		}
	}
	if st := a.Stats(); st.IncrementalWaves == 0 || st.FullWaves < 4 {
		t.Fatalf("stats %+v: want every shard's first full wave and incremental waves after", st)
	}
}
