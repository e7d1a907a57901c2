package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
// Spans of one request share Req; Parent is the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	N      int    `json:"n"` // operations the span covers
}

// tracer records spans for one goroutine, in memory and without locks.
// A nil *tracer records nothing, so untraced loops pay one nil check.
type tracer struct {
	base  time.Time
	lane  uint64
	spans []span
}

const laneShift = 40

// traceSet owns every goroutine's tracer in a run; lanes are created
// before the goroutines that use them start.
type traceSet struct {
	base  time.Time
	lanes []*tracer
}

func newTraceSet() *traceSet { return &traceSet{base: time.Now()} }

func (ts *traceSet) lane() *tracer {
	if ts == nil {
		return nil
	}
	t := &tracer{base: ts.base, lane: uint64(len(ts.lanes) + 1), spans: make([]span, 0, 1<<14)}
	ts.lanes = append(ts.lanes, t)
	return t
}

func (t *tracer) begin(name string, parent, req uint64, n int) uint64 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: parent, Req: req, N: n})
	id := t.lane<<laneShift | uint64(len(t.spans))
	t.spans[len(t.spans)-1].ID = id
	return id
}

func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	t.spans[id&(1<<laneShift-1)-1].End = int64(time.Since(t.base))
}

func (ts *traceSet) all() []span {
	var out []span
	for _, t := range ts.lanes {
		out = append(out, t.spans...)
	}
	return out
}

// write stores the spans as JSON lines.
func (ts *traceSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ts.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanAgg totals the spans of one name.
type spanAgg struct {
	Count int
	Ops   int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

// perOpNs is the mean time per operation the spans covered.
func (a spanAgg) perOpNs() float64 { return ratio(float64(a.Total), float64(a.Ops)) }

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func selfTimes(spans []span) map[string]spanAgg {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanAgg{}
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.Ops += s.N
		a.Total += time.Duration(s.End - s.Start)
		a.Self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		out[s.Name] = a
	}
	return out
}

func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		sum += curE - curS
	}
	return time.Duration(sum)
}

func printSelfTimes(w io.Writer, aggs map[string]spanAgg) {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %9s %10s %12s %12s %12s\n", "span", "count", "ops", "total_ms", "self_ms", "ns/op")
	for _, n := range names {
		a := aggs[n]
		fmt.Fprintf(w, "%-24s %9d %10d %12.2f %12.2f %12.1f\n", n, a.Count, a.Ops,
			a.Total.Seconds()*1e3, a.Self.Seconds()*1e3, a.perOpNs())
	}
}
