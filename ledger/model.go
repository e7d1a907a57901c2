package main

import "fmt"

// bitset is the exact model of one key partition: bit k is set iff key
// k must be present. Each partition belongs to one goroutine.
type bitset struct {
	w []uint64
	n int // keys set
}

func newBitset(size int) *bitset { return &bitset{w: make([]uint64, (size+63)/64)} }

func (b *bitset) has(k int) bool { return b.w[k>>6]&(1<<(k&63)) != 0 }

func (b *bitset) set(k int, v bool) {
	if b.has(k) == v {
		return
	}
	b.w[k>>6] ^= 1 << (k & 63)
	if v {
		b.n++
	} else {
		b.n--
	}
}

func (b *bitset) clone() *bitset {
	return &bitset{w: append([]uint64(nil), b.w...), n: b.n}
}

// aggModel answers the order-statistics queries exactly: a bitset of the
// keys plus Fenwick trees of counts and key sums over [0, size).
type aggModel struct {
	keys *bitset
	cnt  []int64
	sum  []int64
}

func newAggModel(size int) *aggModel {
	return &aggModel{keys: newBitset(size), cnt: make([]int64, size+1), sum: make([]int64, size+1)}
}

func (m *aggModel) set(k int, v bool) {
	if m.keys.has(k) == v {
		return
	}
	m.keys.set(k, v)
	d := int64(1)
	if !v {
		d = -1
	}
	for i := k + 1; i < len(m.cnt); i += i & -i {
		m.cnt[i] += d
		m.sum[i] += d * int64(k)
	}
}

func (m *aggModel) clone() *aggModel {
	return &aggModel{keys: m.keys.clone(), cnt: append([]int64(nil), m.cnt...), sum: append([]int64(nil), m.sum...)}
}

// prefix returns the count and sum of keys in [0, k).
func (m *aggModel) prefix(k int) (c, s int64) {
	k = min(max(k, 0), len(m.cnt)-1)
	for i := k; i > 0; i -= i & -i {
		c += m.cnt[i]
		s += m.sum[i]
	}
	return c, s
}

func (m *aggModel) rank(k int) int64 { c, _ := m.prefix(k); return c }

func (m *aggModel) countRange(lo, hi int) int64 {
	c1, _ := m.prefix(hi + 1)
	c0, _ := m.prefix(lo)
	return c1 - c0
}

func (m *aggModel) sumRange(lo, hi int) int64 {
	_, s1 := m.prefix(hi + 1)
	_, s0 := m.prefix(lo)
	return s1 - s0
}

// selectKey returns the i-th smallest key (0-based) by binary descent.
func (m *aggModel) selectKey(i int64) int64 {
	pos := 0
	step := 1
	for step*2 < len(m.cnt) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		if pos+step < len(m.cnt) && m.cnt[pos+step] <= i {
			pos += step
			i -= m.cnt[pos]
		}
	}
	return int64(pos)
}

// checker counts one goroutine's operations against its model. An
// operation fails when it returns an error or a wrong answer; wrong
// answers also make the run incorrect.
type checker struct {
	attempted, failed, wrong int64
	firstWrong               string
}

func (c *checker) op(err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		return false
	}
	return true
}

// expect records one answer; it reports whether the answer was right.
func (c *checker) expect(what string, key, got, want int64) bool {
	if got == want {
		return true
	}
	c.failed++
	c.wrong++
	if c.firstWrong == "" {
		c.firstWrong = fmt.Sprintf("%s(%d) = %d, model says %d", what, key, got, want)
	}
	return false
}

func (c *checker) expectBool(what string, key int64, got, want bool) bool {
	return c.expect(what, key, b2i(got), b2i(want))
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.wrong += o.wrong
	if c.firstWrong == "" {
		c.firstWrong = o.firstWrong
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
