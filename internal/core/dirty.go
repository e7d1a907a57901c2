package core

import (
	"sync"
	"sync/atomic"
)

// The dirty log is the only thing the lock-free write paths contribute to
// the order-statistics subsystem (internal/orderstat): one per-handle,
// single-writer shard holding a mutation counter and a small ring of the
// keys those mutations touched, written after every successful insert or
// delete — exactly the internal/metrics sharding pattern. Writers never
// CAS a shared summary word — the whole point of the lazy augmentation
// design is that the paper's one-CAS insert and three-atomic delete stay
// untouched — so recording a mutation is a plain ring store plus a store
// over a load of the counter, all on memory owned by one goroutine.
//
// The ordering contract the orderstat layer depends on: a mutation's
// record happens before the mutating call returns. Any mutation whose
// caller has been acknowledged is therefore visible in Total() and its
// key in the next Drain — which is what lets a cached summary whose
// CleanDirty equals Total() answer exactly, and lets a refresh wave
// re-resolve only the keys that changed.

// dirtyRing is the number of mutated keys a shard buffers between drains
// (a power of two). A writer that finds its ring full keeps counting but
// stops recording keys; the next drain then reports the loss and the
// refresher falls back to walking the whole tree.
const dirtyRing = 1024

// maxOrphans bounds the undrained keys kept for retired shards; beyond it
// the keys are dropped and the next drain reports the loss.
const maxOrphans = 4 * dirtyRing

// DirtyShard is one handle's private mutation log. Only the owning handle
// writes n, skip and the ring; the drainer writes r. Slot c&(dirtyRing-1)
// holds the key of mutation number c for every c in [max(r, skip), n).
type DirtyShard struct {
	n    atomic.Uint64 // mutations recorded: the ring's write index
	r    atomic.Uint64 // the ring's read index, advanced by Drain
	skip atomic.Uint64 // one past the number of the latest mutation whose key was not stored
	_    [40]byte
	ring [dirtyRing]uint64
}

// Bump records one successful mutation of key. Single-writer: the ring
// slot is a plain store and the counter a store over a load, one cache
// hit each on owned lines, never an RMW. The writer never overwrites an
// undrained slot (it skips the store once the ring is full), so a drain
// copying slots below the n it loaded never races a writer.
//
// The r the writer compares against may be stale: a drain can sit between
// loading n and advancing r, so a writer may skip a key whose slot that
// drain is about to free. The drain that later counts the mutation cannot
// tell from n and r alone, so a skip is recorded by number, before the
// counter that publishes it; any drain whose window reaches the skipped
// mutation sees it and reports the loss.
func (s *DirtyShard) Bump(key uint64) {
	n := s.n.Load()
	if n-s.r.Load() < dirtyRing {
		s.ring[n&(dirtyRing-1)] = key
	} else {
		s.skip.Store(n + 1)
	}
	s.n.Store(n + 1)
}

// DirtyCounter aggregates the per-handle shards. Shard registration,
// retirement and draining take a mutex (handle creation is off the hot
// path); Total is a locked sum so a shard can never be summed twice or
// lost while a retirement folds it into base.
type DirtyCounter struct {
	mu      sync.Mutex
	shards  []*DirtyShard
	base    uint64   // counts folded in from retired shards
	orphans []uint64 // undrained keys handed over by retired shards
	lost    bool     // a mutated key was not kept since the last drain
	claimed bool     // a drainer holds the counter (Claim)
}

// Claim makes the caller the counter's one drainer. Drain hands keys over
// destructively, so a second drainer would take keys the first one needs;
// Claim reports false while another drainer holds the counter.
func (d *DirtyCounter) Claim() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.claimed {
		return false
	}
	d.claimed = true
	return true
}

// Release ends the caller's claim. Keys it drained are gone, so a later
// drainer must not assume it has seen every mutation before its claim.
func (d *DirtyCounter) Release() {
	d.mu.Lock()
	d.claimed = false
	d.mu.Unlock()
}

// NewShard registers and returns a fresh shard for one handle.
func (d *DirtyCounter) NewShard() *DirtyShard {
	s := &DirtyShard{}
	d.mu.Lock()
	d.shards = append(d.shards, s)
	d.mu.Unlock()
	return s
}

// Retire folds a handle's shard into the base total, hands its undrained
// keys to the orphan list, and drops it from the shard list, so closed or
// collected handles neither accumulate nor lose a mutation. The shard's
// owner must not write to it afterwards; callers nil their reference.
func (d *DirtyCounter) Retire(s *DirtyShard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := s.n.Load()
	d.base += n
	if len(d.orphans)+int(n-s.r.Load()) > maxOrphans {
		d.lost, d.orphans = true, d.orphans[:0]
	} else {
		d.orphans = d.collect(d.orphans, s, n)
	}
	for i, sh := range d.shards {
		if sh == s {
			d.shards[i] = d.shards[len(d.shards)-1]
			d.shards = d.shards[:len(d.shards)-1]
			return
		}
	}
}

// collect appends s's undrained keys up to mutation n to dst and marks
// them drained. A window holding a skipped mutation marks the loss
// instead; so does a skip past n (not yet counted, so reported again by
// the next drain) — conservative, never missing. d.mu held.
func (d *DirtyCounter) collect(dst []uint64, s *DirtyShard, n uint64) []uint64 {
	r := s.r.Load()
	if n-r > dirtyRing || s.skip.Load() > r {
		d.lost = true
	} else {
		for c := r; c < n; c++ {
			dst = append(dst, s.ring[c&(dirtyRing-1)])
		}
	}
	s.r.Store(n)
	return dst
}

// Drain appends to dst the key of every mutation recorded since the
// previous drain (unsorted, possibly repeated) and returns it with the
// total those mutations bring the count to: exactly the mutations counted
// in total and not in the previous drain's total contribute keys. lost
// reports that some of those keys were not kept (a ring or the orphan
// list overflowed); the caller must then resolve the whole key space.
// A counter has one drainer at a time (see Claim).
func (d *DirtyCounter) Drain(dst []uint64) (keys []uint64, total uint64, lost bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	total = d.base
	dst = append(dst, d.orphans...)
	d.orphans = d.orphans[:0]
	for _, s := range d.shards {
		n := s.n.Load()
		total += n
		dst = d.collect(dst, s, n)
	}
	lost, d.lost = d.lost, false
	return dst, total, lost
}

// Total returns the number of successful mutations recorded so far. It is
// monotonically non-decreasing, exact when the tree is quiescent, and
// never ahead of the mutations that have actually completed — a mutation
// still inside its call may or may not be counted yet, but one whose call
// returned always is.
func (d *DirtyCounter) Total() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.base
	for _, s := range d.shards {
		n += s.n.Load()
	}
	return n
}
