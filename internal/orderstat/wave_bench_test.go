package orderstat

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
)

// BenchmarkIncrementalWave times the Exact query that follows 64
// mutations over a random half of 100K keys: one incremental wave (64
// lookups, the touched blocks, the block index). The mutations run with
// the timer stopped.
func BenchmarkIncrementalWave(b *testing.B) {
	tree := core.New(core.Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	defer tree.Close()
	ix, err := New(tree)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	h := tree.NewHandle()
	defer h.Close()
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(100000) {
		if i%2 == 0 {
			h.Insert(keys.Map(int64(i)))
		}
	}
	ix.Acquire(true, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			k := keys.Map(int64(rng.Intn(100000)))
			if !h.Insert(k) {
				h.Delete(k)
			}
		}
		b.StartTimer()
		ix.Acquire(true, 0)
	}
	b.StopTimer()
	if st := ix.Stats(); st.FullWaves != 1 {
		b.Fatalf("%d full waves, want only the first", st.FullWaves)
	}
}
