// Package orderstat is the lazily-refreshed order-statistics layer over
// the lock-free external BST (internal/core): rank, select, count-in-range
// and sum-in-range in O(log n + B), without adding a single atomic
// instruction to the paper's insert and delete hot paths.
//
// # Why writers never CAS summary words
//
// The classic augmented-tree design stores a subtree size in every
// internal node and has writers update the sizes on the path they touched.
// In the NM-BST that is a non-starter: an insert is one CAS and a delete
// is three atomics precisely because nothing above the operation's edge is
// written, and a delete's splice CAS can excise a whole chain of tagged
// nodes whose ancestors' summaries would all need fixing — by whichever of
// several racing helpers happens to win. Making writers maintain exact
// summaries would reintroduce the multi-word coordination the paper's
// design eliminates.
//
// Instead, writers only append the key they changed to a per-handle
// single-writer dirty log (core.Config.TrackDirty — the internal/metrics
// pattern: a plain ring store plus a store over a load of the counter, no
// RMW), and a refresher reconciles the summary in waves:
//
//	keys, d0 := dirty.Drain()          // every mutation counted in d0
//	present := LookupBatch(sorted keys) // one epoch pin, after the drain
//	rewrite the blocks holding those keys, copy-on-write
//	publish Summary{..., CleanDirty: d0}
//
// Every key whose mutation is counted in d0 is looked up after that
// mutation completed, and every other key's presence is unchanged since
// the wave that last resolved it, so the published summary covers every
// mutation counted in d0 — the same weak-consistency contract as an
// epoch-pinned scan. If dirty.Total() still equals CleanDirty at query
// time, no mutation has completed since (records happen before mutating
// calls return), so answering from the summary is equivalent to running
// a fresh scan at the query's linearization point.
//
// A wave costs O(d·log n + d·B + n/B) for d dirty keys and blocks of about
// B keys. The first wave, a wave after a ring or orphan-list overflow
// lost keys, and a wave whose d is large against n walk the whole tree
// instead (O(n)) and feed the same block builder from the sorted stream.
//
// # The summary shape
//
// A summary is the sorted key sequence cut into immutable blocks of
// between B/2 and 2B keys, plus a small index over them: each block's
// largest key and the cumulative key counts and user-key sums of the
// blocks before it. Rank is a binary search over the index and then one
// block; Select a binary search over the cumulative counts; Sum adds the
// cumulative sums and the two partial boundary blocks. A wave shares
// every untouched block with the previous summary and rebuilds only the
// index, so publishing stays one atomic pointer store and readers stay
// lock-free, never observing a half-built summary.
//
// # Consistency menu
//
//   - Exact: serve the cached summary iff CleanDirty == dirty.Total(),
//     else run (or join) a refresh wave and answer from its result.
//   - BoundedStale(m): serve the cached summary iff at most m mutations
//     have completed since it was built. Each completed mutation moves
//     any count, rank or selection index by at most 1, so every answer is
//     within m (plus in-flight racers) of an exact one.
package orderstat

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
)

const (
	// blockSize is B, the target keys per summary block. Walks cut blocks
	// of exactly B; waves split a block that reaches 2B and merge a run
	// shorter than B/2 into its right neighbour.
	blockSize = 64
	// walkShare: a wave whose distinct dirty keys exceed n/walkShare walks
	// the tree instead — past that the per-key lookups cost more than
	// visiting every key in order (measured crossover: between n/4 and
	// n/2 at both 50K and 500K keys).
	walkShare = 4
	// drainEvery is how many keys a walk visits between drains of the
	// dirty logs, so mutations racing a long walk are kept for the next
	// wave instead of overflowing the writers' rings.
	drainEvery = 4096
	// maxPending bounds the keys carried from a walk to the next wave.
	maxPending = 1 << 16
)

// ErrNotTracked reports an Index built over a tree without
// core.Config.TrackDirty: with no dirty log there is no freshness token,
// and every staleness bound would be a lie.
var ErrNotTracked = errors.New("orderstat: tree was built without TrackDirty")

// ErrIndexed reports a second Index over one tree. A wave drains the dirty
// log destructively, so two indexes would each miss the keys the other
// drained while both published summaries they believe exact.
var ErrIndexed = errors.New("orderstat: tree already has an index")

// Summary is one published wave: the tree's in-order key sequence as of
// the wave, cut into blocks, and the dirty total the wave covers.
// Immutable once published; readers share it lock-free, and later
// summaries share its untouched blocks.
type Summary struct {
	blocks []block // in key order
	n      int     // keys in all blocks
	total  int64   // user-key sum of all blocks (int64 wraparound)
	// CleanDirty is the dirty total the wave covers. The summary is exact
	// while the counter still reads this.
	CleanDirty uint64
	// Wave numbers the refresh that built this summary (diagnostics).
	Wave uint64
}

// block is one run of the summary's keys and its index entry.
type block struct {
	keys  []uint64 // ascending mapped keys, non-empty, immutable
	last  uint64   // keys[len(keys)-1], kept inline for the index search
	count int      // keys in the blocks before this one
	sum   int64    // user-key sum of the blocks before this one
}

// Stats is an index's refresh telemetry. All counts are cumulative.
type Stats struct {
	IncrementalWaves uint64 // waves that re-resolved only dirty keys
	FullWaves        uint64 // waves that walked the whole tree
	FallbackWaves    uint64 // full waves after the first: lost keys or too many dirty keys
	DirtyKeys        uint64 // distinct keys resolved by incremental waves
	ExactHits        uint64 // Exact queries served from a clean summary
	StaleHits        uint64 // BoundedStale queries served from the cache
	WaveNanos        metrics.LatencySnapshot
}

// Index is the order-statistics accessor for one core tree. All methods
// are safe for concurrent use; queries on a clean summary are lock-free.
type Index struct {
	dirty *core.DirtyCounter

	// mu serializes refresh waves and guards the wave state below.
	mu      sync.Mutex
	h       *core.Handle // the waves' lookup and walk handle
	pending []uint64     // drained keys not yet resolved
	lost    bool         // a drain lost keys: the next wave must walk
	present []bool       // LookupBatch scratch
	tail    []uint64     // block builder scratch
	closed  bool

	cur atomic.Pointer[Summary]

	incWaves, fullWaves, fallbacks  atomic.Uint64
	dirtyKeys, exactHits, staleHits atomic.Uint64
	waveTime                        metrics.Hist // written under mu
}

// New builds an Index over t. The tree must have been created with
// Config.TrackDirty and have no other open Index: the index claims the
// tree's dirty log and registers one long-lived handle for its waves.
func New(t *core.Tree) (*Index, error) {
	if t.Dirty() == nil {
		return nil, ErrNotTracked
	}
	if !t.Dirty().Claim() {
		return nil, ErrIndexed
	}
	ix := &Index{dirty: t.Dirty(), h: t.NewHandle()}
	ix.cur.Store(&Summary{}) // empty tree, never-written token
	return ix, nil
}

// Close releases the index's wave handle and its claim on the dirty log
// (a later index starts with a full walk). The index must be quiescent.
func (ix *Index) Close() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.closed {
		ix.h.Close()
		ix.dirty.Release()
		ix.closed = true
	}
}

// Waves returns how many refresh waves have run (diagnostics).
func (ix *Index) Waves() uint64 { return ix.incWaves.Load() + ix.fullWaves.Load() }

// Stats returns the index's refresh telemetry.
func (ix *Index) Stats() Stats {
	return Stats{
		IncrementalWaves: ix.incWaves.Load(),
		FullWaves:        ix.fullWaves.Load(),
		FallbackWaves:    ix.fallbacks.Load(),
		DirtyKeys:        ix.dirtyKeys.Load(),
		ExactHits:        ix.exactHits.Load(),
		StaleHits:        ix.staleHits.Load(),
		WaveNanos:        ix.waveTime.Snapshot(),
	}
}

// Add folds o into s (merging a sharded forest's per-shard indexes).
func (s *Stats) Add(o Stats) {
	s.IncrementalWaves += o.IncrementalWaves
	s.FullWaves += o.FullWaves
	s.FallbackWaves += o.FallbackWaves
	s.DirtyKeys += o.DirtyKeys
	s.ExactHits += o.ExactHits
	s.StaleHits += o.StaleHits
	s.WaveNanos.Add(o.WaveNanos)
}

// Acquire returns a summary satisfying the requested consistency: exact
// (no completed mutation uncounted) or bounded-stale (at most maxDirty
// completed mutations uncounted). A summary that fails the test triggers
// a refresh wave; concurrent acquirers join the same wave via mu.
func (ix *Index) Acquire(exact bool, maxDirty uint64) *Summary {
	s := ix.cur.Load()
	lag := ix.dirty.Total() - s.CleanDirty
	switch {
	case s.Wave == 0:
		// The constructor's placeholder: only trust it when the tree has
		// truly never been written (lag covers that), never as "clean".
		if lag == 0 && !exact {
			ix.staleHits.Add(1)
			return s
		}
	case lag == 0 && exact:
		ix.exactHits.Add(1)
		return s
	case !exact && lag <= maxDirty:
		ix.staleHits.Add(1)
		return s
	}
	return ix.Refresh()
}

// Refresh runs one wave: drain the dirty keys and the total they bring
// the count to, resolve them, publish the summary. Returns the published
// summary (which may be a concurrent wave's result that is already clean
// enough). Superseded summaries are garbage collected once their readers
// finish — readers never block a wave.
func (ix *Index) Refresh() *Summary {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	start := time.Now()
	cur := ix.cur.Load()
	var d0 uint64
	var lost bool
	ix.pending, d0, lost = ix.dirty.Drain(ix.pending)
	ix.lost = ix.lost || lost
	if cur.Wave > 0 && d0 == cur.CleanDirty {
		// A wave we queued behind already covers every mutation completed
		// before our drain; rebuilding would produce the same answer.
		return cur
	}
	dirty := sortDedup(ix.pending)
	wave := ix.Waves() + 1
	var s *Summary
	if cur.Wave == 0 || ix.lost || len(dirty)*walkShare > cur.Len() {
		if cur.Wave > 0 {
			ix.fallbacks.Add(1)
		}
		s = ix.walk(cur, d0, wave)
		ix.fullWaves.Add(1)
	} else {
		s = ix.incremental(cur, dirty, d0, wave)
		ix.pending = ix.pending[:0]
		ix.dirtyKeys.Add(uint64(len(dirty)))
		ix.incWaves.Add(1)
	}
	ix.cur.Store(s)
	ix.waveTime.Observe(time.Since(start))
	return s
}

// walk rebuilds the summary from an epoch-pinned in-order walk. The
// drain that read d0 consumed every key the walk covers; the drains it
// makes along the way collect keys of mutations racing it, which belong
// to the next wave.
func (ix *Index) walk(cur *Summary, d0, wave uint64) *Summary {
	ix.pending, ix.lost = ix.pending[:0], false
	b := ix.newBuilder(cur.Len()/blockSize + 1)
	seen := 0
	ix.h.Range(0, keys.Map(keys.MaxUser), func(u uint64) bool {
		b.add(u)
		if seen++; seen%drainEvery == 0 {
			var lost bool
			ix.pending, _, lost = ix.dirty.Drain(ix.pending)
			if lost || len(ix.pending) > maxPending {
				ix.pending, ix.lost = ix.pending[:0], true
			}
		}
		return true
	})
	return b.finish(d0, wave)
}

// incremental resolves the sorted distinct dirty keys with one batched
// lookup and rewrites only the blocks they fall in; runs of untouched
// blocks are shared wholesale.
func (ix *Index) incremental(cur *Summary, dirty []uint64, d0, wave uint64) *Summary {
	present := slices.Grow(ix.present[:0], len(dirty))[:len(dirty)]
	ix.present = present
	ix.h.LookupBatch(dirty, present)
	b := ix.newBuilder(len(cur.blocks) + len(dirty)/blockSize + 1)
	nb := len(cur.blocks)
	if nb == 0 {
		b.merge(nil, dirty, present)
		return b.finish(d0, wave)
	}
	shared := 0 // first block not yet emitted
	for j := 0; j < len(dirty); {
		// The block holding dirty[j]: the first whose last key is ≥ it;
		// the last block takes every key beyond it.
		bi := shared + sort.Search(nb-1-shared, func(x int) bool { return cur.blocks[shared+x].last >= dirty[j] })
		b.shareRun(cur, shared, bi)
		k := j + 1
		for k < len(dirty) && (bi == nb-1 || dirty[k] <= cur.blocks[bi].last) {
			k++
		}
		b.merge(cur.blocks[bi].keys, dirty[j:k], present[j:k])
		j, shared = k, bi+1
	}
	b.shareRun(cur, shared, nb)
	return b.finish(d0, wave)
}

// sortDedup sorts ks ascending and drops repeats in place.
func sortDedup(ks []uint64) []uint64 {
	slices.Sort(ks)
	return slices.Compact(ks)
}

// builder assembles a summary's blocks in key order. Keys it owns
// accumulate in tail and are cut into fresh blocks; unchanged blocks of
// the previous summary are shared as they are.
type builder struct {
	s    *Summary
	tail []uint64
	ix   *Index
}

func (ix *Index) newBuilder(blocks int) *builder {
	s := &Summary{blocks: make([]block, 0, blocks)}
	return &builder{s: s, tail: ix.tail[:0], ix: ix}
}

// push appends one block whose user keys sum to sum.
func (b *builder) push(keys []uint64, sum int64) {
	s := b.s
	s.blocks = append(s.blocks, block{keys: keys, last: keys[len(keys)-1], count: s.n, sum: s.total})
	s.n += len(keys)
	s.total += sum
}

// add appends one owned key; a tail reaching 2B is split, its first B
// keys becoming a block.
func (b *builder) add(u uint64) {
	b.tail = append(b.tail, u)
	if len(b.tail) == 2*blockSize {
		b.cut(blockSize)
	}
}

// addRun appends owned keys in bulk, splitting like add.
func (b *builder) addRun(ks []uint64) {
	b.tail = append(b.tail, ks...)
	for len(b.tail) >= 2*blockSize {
		b.cut(blockSize)
	}
}

// cut publishes the first n tail keys as a new block.
func (b *builder) cut(n int) {
	blk := slices.Clone(b.tail[:n])
	var sum int64
	for _, u := range blk {
		sum += keys.Unmap(u)
	}
	b.push(blk, sum)
	b.tail = b.tail[:copy(b.tail, b.tail[n:])]
}

// shareRun appends the previous summary's untouched blocks [i, k). A
// tail of at least B/2 keys is cut into its own block first; a shorter
// one absorbs the first shared block instead, so a touched region never
// leaves a trail of tiny blocks behind. The rest are copied wholesale,
// their index entries shifted by the net change before them.
func (b *builder) shareRun(cur *Summary, i, k int) {
	for ; i < k && len(b.tail) > 0; i++ {
		if len(b.tail) >= blockSize/2 {
			b.cut(len(b.tail))
			break
		}
		b.addRun(cur.blocks[i].keys)
	}
	if i >= k {
		return
	}
	s := b.s
	dc, ds := s.n-cur.blocks[i].count, s.total-cur.blocks[i].sum
	at := len(s.blocks)
	s.blocks = append(s.blocks, cur.blocks[i:k]...)
	for x := at; x < len(s.blocks); x++ {
		s.blocks[x].count += dc
		s.blocks[x].sum += ds
	}
	if k == len(cur.blocks) {
		s.n, s.total = cur.n+dc, cur.total+ds
	} else {
		s.n, s.total = cur.blocks[k].count+dc, cur.blocks[k].sum+ds
	}
}

// merge adds blk's keys with the dirty keys' presence applied: each dirty
// key is dropped from blk and re-added iff present.
func (b *builder) merge(blk, dirty []uint64, present []bool) {
	for j, d := range dirty {
		i, found := slices.BinarySearch(blk, d)
		b.addRun(blk[:i])
		if found {
			i++
		}
		blk = blk[i:]
		if present[j] {
			b.add(d)
		}
	}
	b.addRun(blk)
}

// finish cuts the remaining tail and stamps the summary.
func (b *builder) finish(d0, wave uint64) *Summary {
	if len(b.tail) > 0 {
		b.cut(len(b.tail))
	}
	b.ix.tail = b.tail
	b.s.CleanDirty, b.s.Wave = d0, wave
	return b.s
}

// --- Queries. A position is (block, offset); the index finds the block
// in O(log(n/B)) and a binary search or a partial sum finishes inside it.

// Len returns the number of keys the summary covers.
func (s *Summary) Len() int { return s.n }

// locate returns the position of the first key ≥ u: block b and offset i
// within it, or (len(blocks), 0) when every key is below u.
func (s *Summary) locate(u uint64) (b, i int) {
	b = sort.Search(len(s.blocks), func(j int) bool { return s.blocks[j].last >= u })
	if b == len(s.blocks) {
		return b, 0
	}
	blk := s.blocks[b].keys
	return b, sort.Search(len(blk), func(j int) bool { return blk[j] >= u })
}

// before returns the number of keys before position (b, i).
func (s *Summary) before(b, i int) int {
	if b == len(s.blocks) {
		return s.n
	}
	return s.blocks[b].count + i
}

// Rank returns the number of keys strictly less than u.
func (s *Summary) Rank(u uint64) int { return s.before(s.locate(u)) }

// Select returns the i-th smallest key (0-based); ok is false when i is
// out of range.
func (s *Summary) Select(i int) (uint64, bool) {
	if i < 0 || i >= s.n {
		return 0, false
	}
	b := sort.Search(len(s.blocks), func(j int) bool { return s.blocks[j].count > i }) - 1
	return s.blocks[b].keys[i-s.blocks[b].count], true
}

// Count returns the number of keys in [lo, hi] (inclusive, matching the
// tree's Range).
func (s *Summary) Count(lo, hi uint64) int {
	if lo > hi {
		return 0
	}
	if hi == ^uint64(0) { // Rank(hi+1) would wrap; nothing exceeds hi
		return s.n - s.Rank(lo)
	}
	return s.Rank(hi+1) - s.Rank(lo)
}

// Sum returns the sum of the user (unmapped int64) keys in [lo, hi],
// with int64 wraparound on overflow: the cumulative block sums between
// the two boundaries, corrected by the partial boundary blocks.
func (s *Summary) Sum(lo, hi uint64) int64 {
	if lo > hi {
		return 0
	}
	ba, ia := s.locate(lo)
	bb, ib := len(s.blocks), 0
	if hi != ^uint64(0) {
		bb, ib = s.locate(hi + 1)
	}
	return s.prefix(bb, ib) - s.prefix(ba, ia)
}

// prefix returns the user-key sum of every key before position (b, i),
// adding or subtracting whichever part of block b is shorter.
func (s *Summary) prefix(b, i int) int64 {
	if b == len(s.blocks) {
		return s.total
	}
	blk := s.blocks[b]
	if i <= len(blk.keys)/2 {
		p := blk.sum
		for _, u := range blk.keys[:i] {
			p += keys.Unmap(u)
		}
		return p
	}
	p := s.total
	if b+1 < len(s.blocks) {
		p = s.blocks[b+1].sum
	}
	for _, u := range blk.keys[i:] {
		p -= keys.Unmap(u)
	}
	return p
}

// Visit yields the summary's keys in [lo, hi] ascending — the planner
// behind the indexed scan: it seeks directly to the range's first key
// where a plain tree scan would walk and discard everything before it.
func (s *Summary) Visit(lo, hi uint64, yield func(u uint64) bool) {
	if lo > hi {
		return
	}
	for b, i := s.locate(lo); b < len(s.blocks); b, i = b+1, 0 {
		for _, u := range s.blocks[b].keys[i:] {
			if u > hi || !yield(u) {
				return
			}
		}
	}
}
