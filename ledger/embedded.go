package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	bst "repro"
)

// embedded-window: the tree in-process with no socket. One stream runs
// the paper's "mixed" 70/20/10 lookup/insert/delete over [0, 1M), which
// holds its steady-state fill of 2/3; the other ingests time-ordered keys
// above 1M, keeping a retention window of ewWindow keys: insert the next
// timestamp, delete the one ewWindow behind. Each has its own Accessor
// and owns its keys, so each checks every answer exactly. The streams
// take turns in fixed slices, as in serve-durable: run side by side, each
// slowed the other by a share that changed from run to run.
const (
	ewRange  = 1_000_000
	ewWindow = 20_000
	ewGroup  = 256 // random-mix ops timed together
	ewPairs  = 16  // ingest insert+delete pairs timed together

	ewMixSlice    = 32 // mix groups per turn (~15 ms)
	ewIngestSlice = 4  // ingest groups per turn (~12 ms)
)

// xorshift is the load's key source: cheap enough to sit inside a timed
// group without dominating it.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

type ewState struct {
	tree  *bst.Tree
	model *bitset
	next  int64 // next ingest timestamp; (next-ewWindow, next) are present
}

// buildEmbedded prefills the random range in random order to 2/3 full and
// then the retention window in time order.
func buildEmbedded(seed int64) (*ewState, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(ewRange)
	s := &ewState{tree: bst.New(bst.WithReclamation()), model: newBitset(ewRange), next: ewRange}
	acc := s.tree.NewAccessor()
	defer acc.Close()
	for _, k := range perm[:ewRange*2/3] {
		if !acc.Insert(int64(k)) {
			return nil, fmt.Errorf("prefill: insert %d refused", k)
		}
		s.model.set(k, true)
	}
	for ; s.next < ewRange+ewWindow; s.next++ {
		if !acc.Insert(s.next) {
			return nil, fmt.Errorf("window fill: insert %d refused", s.next)
		}
	}
	return s, nil
}

type ewMeasure struct {
	mix, ingest summary // µs per op, and µs per ingest group
	cpuPerOp    float64
	ops         int64
	win         window
	mixNs       float64 // mean ns per mixed op
	ingestUs    float64 // mean µs per ingest op
}

func (s *ewState) measure(seed int64, seconds float64, warm time.Duration, ts *traceSet, ck *[2]checker) (*ewMeasure, error) {
	m := &ewMeasure{}
	m.win.refBefore = refLoopNs()
	from := time.Now().Add(warm)
	end := from.Add(time.Duration(seconds * float64(time.Second)))
	var mixLat, ingLat []float64
	var mixOps, ingOps int64
	trs := [2]*tracer{ts.lane(), ts.lane()}
	mixAcc, ingAcc := s.tree.NewAccessor(), s.tree.NewAccessor()
	defer mixAcc.Close()
	defer ingAcc.Close()
	rng := xorshift(seed | 1)
	var mixSeq, ingSeq uint64
	mix := func(groups int) {
		c := &ck[0]
		for ; groups > 0; groups-- {
			mixSeq++
			t0 := time.Now()
			sp := trs[0].begin("store.bst.mix", 0, mixSeq, ewGroup)
			for j := 0; j < ewGroup; j++ {
				r, k := rng.intn(10), rng.intn(ewRange)
				present := s.model.has(k)
				switch {
				case r < 7:
					if mixAcc.Contains(int64(k)) != present {
						c.expectBool("contains", int64(k), !present, present)
					}
				case r < 9:
					if mixAcc.Insert(int64(k)) == present {
						c.expectBool("insert", int64(k), present, !present)
					}
					s.model.set(k, true)
				default:
					if mixAcc.Delete(int64(k)) != present {
						c.expectBool("delete", int64(k), !present, present)
					}
					s.model.set(k, false)
				}
			}
			trs[0].end(sp)
			t1 := time.Now()
			c.attempted += ewGroup
			if t0.After(from) && t1.Before(end) {
				mixLat = append(mixLat, float64(t1.Sub(t0).Nanoseconds())/1e3/ewGroup)
				mixOps += ewGroup
			}
		}
	}
	ingest := func(groups int) {
		c := &ck[1]
		for ; groups > 0; groups-- {
			ingSeq++
			t0 := time.Now()
			sp := trs[1].begin("store.bst.ingest", 0, ingSeq, 2*ewPairs)
			for j := 0; j < ewPairs; j++ {
				if !ingAcc.Insert(s.next) {
					c.expectBool("ingest insert", s.next, false, true)
				}
				if !ingAcc.Delete(s.next - ewWindow) {
					c.expectBool("retention delete", s.next-ewWindow, false, true)
				}
				s.next++
			}
			trs[1].end(sp)
			t1 := time.Now()
			c.attempted += 2 * ewPairs
			if t0.After(from) && t1.Before(end) {
				ingLat = append(ingLat, float64(t1.Sub(t0).Nanoseconds())/1e3)
				ingOps += 2 * ewPairs
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for time.Now().Before(end) {
			mix(ewMixSlice)
			ingest(ewIngestSlice)
		}
	}()
	time.Sleep(time.Until(from))
	err := m.win.open(os.Getpid())
	time.Sleep(time.Until(end))
	if err == nil {
		err = m.win.close(os.Getpid())
	}
	<-done
	m.win.refAfter = refLoopNs()
	if err != nil {
		return nil, err
	}
	m.mix, m.ingest = summarize(mixLat), summarize(ingLat)
	m.ops = mixOps + ingOps
	m.cpuPerOp = m.win.cpuUsPerOp(m.ops)
	m.mixNs = m.mix.Mean * 1e3
	m.ingestUs = m.ingest.Mean / (2 * ewPairs)
	return m, nil
}

// validate checks the tree's structure and that it holds exactly the
// keys both models say it holds.
func (s *ewState) validate(ck *checker) {
	if err := s.tree.Validate(); err != nil {
		ck.failed++
		ck.wrong++
		if ck.firstWrong == "" {
			ck.firstWrong = "Validate: " + err.Error()
		}
	}
	ck.expect("len", 0, int64(s.tree.Len()), int64(s.model.n+ewWindow))
}

func runEmbeddedWindow(cfg config) (*runResult, error) {
	res := newRunResult()
	reps := setupReps
	var ts *traceSet
	if cfg.trace {
		ts = newTraceSet()
		reps = 2 * setupReps
	}
	setupTr := ts.lane()
	var s *ewState
	var setups, tracedSetups []float64
	for rep := 0; rep < reps; rep++ {
		if s != nil {
			s.tree.Close()
			s = nil
			runtime.GC()
		}
		traced := cfg.trace && rep%2 == 1
		var tr *tracer
		if traced {
			tr = setupTr
		}
		t0 := time.Now()
		sp := tr.begin("setup.prefill", 0, uint64(rep+1), ewRange*2/3+ewWindow)
		var err error
		if s, err = buildEmbedded(cfg.seed); err != nil {
			return nil, err
		}
		tr.end(sp)
		if traced {
			tracedSetups = append(tracedSetups, time.Since(t0).Seconds())
		} else {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	defer s.tree.Close()
	secs := float64(cfg.seconds)
	if cfg.trace {
		secs /= 2 * tracePairs
	}
	var cks [2]checker
	m, err := s.measure(cfg.seed, secs, warmup, nil, &cks)
	if err != nil {
		return nil, err
	}
	mem := liveHeapMB()
	peak, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	var t *ewMeasure
	var ovOp, ovGroup, ovCPU pairs
	for i, u := 0, m; cfg.trace && i < tracePairs; i++ {
		if i > 0 {
			if u, err = s.measure(cfg.seed+int64(2*i), secs, 0, nil, &cks); err != nil {
				return nil, err
			}
		}
		if t, err = s.measure(cfg.seed+int64(2*i+1), secs, 0, ts, &cks); err != nil {
			return nil, err
		}
		ovOp.add(u.mix.P50, t.mix.P50)
		ovGroup.add(u.ingest.P50, t.ingest.P50)
		ovCPU.add(u.cpuPerOp, t.cpuPerOp)
	}
	// The spans stay referenced, so the traced heap includes them.
	tracedMem := liveHeapMB()
	res.ck.merge(&cks[0])
	res.ck.merge(&cks[1])
	s.validate(&res.ck)
	res.e2e["op_p50_us"] = m.mix.P50
	res.e2e["group_p50_us"] = m.ingest.P50
	res.e2e["cpu_us_per_op"] = m.cpuPerOp
	res.e2e["setup_s"] = median(setups)
	res.e2e["mem_mb"] = mem
	res.timings["mixed_op"] = m.mix
	res.timings["ingest16pairs"] = m.ingest
	res.diag["peak_rss_mb"] = peak
	res.diag["ops_per_s"] = float64(m.ops) / m.win.seconds()
	res.diag["ingest_op_us"] = m.ingestUs
	m.win.env(res.diag)
	if !cfg.trace {
		return res, nil
	}

	l := res.layer
	t.win.env(l)
	for _, k := range []string{"client.op_p99_us", "client.group_p99_us", "client.retries_per_kop", "client.ops_per_s",
		"wire.encode_ns_per_op", "wire.decode_ns_per_op", "wire.bytes_per_op",
		"server.self_us_per_req", "server.shed_ratio", "server.batch_ops_per_req",
		"orderstat.exact_wave_us", "orderstat.exact_cached_us", "durable.log_ns_per_op",
		"wal.appends_per_op", "wal.bytes_per_op", "wal.records_per_group", "wal.fsyncs_per_s",
		"durable.recovery_s", "durable.replayed_ops"} {
		l[k] = 0
	}
	noContention(l)
	l["core.op_ns"] = t.mixNs
	l["core.ingest_op_us"] = t.ingestUs
	l["overhead.op_p50_us"] = ovOp.overhead()
	l["overhead.group_p50_us"] = ovGroup.overhead()
	l["overhead.cpu_us_per_op"] = ovCPU.overhead()
	l["overhead.setup_s"] = ratio(median(tracedSetups), median(setups)) - 1
	l["overhead.mem_mb"] = ratio(tracedMem, mem) - 1
	res.timings["traced_mixed_op"] = t.mix
	res.timings["traced_ingest16pairs"] = t.ingest
	res.spans = ts
	printSelfTimes(os.Stdout, selfTimes(ts.all()))
	return res, nil
}
