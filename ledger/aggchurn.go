package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/rtrace"
	"repro/internal/wire"
)

// agg-churn: in-memory bstserve -order-stats over a half-full 100K-key
// range. One connection repeats a cycle: one OpBatch of agBatch mutations
// that each change the set, then one Exact aggregate (Rank, Select,
// CountRange, SumRange in rotation) over a random 10% of the range. The
// batch always completes before the query, so every query pays exactly
// one refresh wave.
const (
	agRange       = 100_000
	agBatch       = 64
	agSpan        = agRange / 10
	agPrefill     = 1024 // ops per prefill batch
	agReplayCycle = 400  // cycles replayed in-process in the traced run
)

var aggKinds = []uint8{wire.AggRank, wire.AggSelect, wire.AggCount, wire.AggSum}

// aggQuery is one Exact aggregate and the model's answer to it.
type aggQuery struct {
	kind    uint8
	key, to int64
	want    int64
}

// agCycle is one recorded cycle, kept for the traced run's replays.
type agCycle struct {
	ops []client.Op
	q   aggQuery
	got int64
}

type aggLoad struct {
	model *aggModel
	rng   *rand.Rand
	ck    checker
	seen  []bool
}

func newAggLoad(seed int64) *aggLoad {
	return &aggLoad{model: newAggModel(agRange), rng: rand.New(rand.NewSource(seed)), seen: make([]bool, agRange)}
}

// prefillOps returns inserts of a random half of the range, in random order.
func (a *aggLoad) prefillOps() []client.Op {
	var ops []client.Op
	for k := 0; k < agRange; k++ {
		if a.rng.Intn(2) == 0 {
			ops = append(ops, client.InsertOp(int64(k)))
		}
	}
	a.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// nextBatch draws agBatch distinct keys and flips each: delete if the
// model holds it, insert otherwise, so every operation changes the set.
func (a *aggLoad) nextBatch() []client.Op {
	ops := make([]client.Op, 0, agBatch)
	for len(ops) < agBatch {
		k := a.rng.Intn(agRange)
		if a.seen[k] {
			continue
		}
		a.seen[k] = true
		if a.model.keys.has(k) {
			ops = append(ops, client.DeleteOp(int64(k)))
		} else {
			ops = append(ops, client.InsertOp(int64(k)))
		}
	}
	for _, op := range ops {
		a.seen[op.Key] = false
	}
	return ops
}

// apply checks a batch's results (every op must report a change) and
// updates the model.
func (a *aggLoad) apply(ops []client.Op, res []client.OpResult, err error) {
	for i, op := range ops {
		e := err
		if e == nil && i < len(res) {
			e = res[i].Err
		}
		if !a.ck.op(e) {
			continue
		}
		a.ck.expectBool(wire.OpName(op.Kind), op.Key, res[i].OK, true)
		a.model.set(int(op.Key), op.Kind == wire.OpInsert)
	}
}

// nextQuery draws the cycle's aggregate; the model answers it.
func (a *aggLoad) nextQuery(cycle int) aggQuery {
	lo := a.rng.Intn(agRange - agSpan)
	hi := lo + agSpan - 1
	q := aggQuery{kind: aggKinds[cycle%len(aggKinds)], key: int64(lo), to: int64(hi)}
	switch q.kind {
	case wire.AggRank:
		q.key = int64(hi)
		q.want = a.model.rank(hi)
	case wire.AggSelect:
		q.key = a.model.rank(lo) + a.rng.Int63n(max(a.model.countRange(lo, hi), 1))
		q.want = a.model.selectKey(q.key)
	case wire.AggCount:
		q.want = a.model.countRange(lo, hi)
	case wire.AggSum:
		q.want = a.model.sumRange(lo, hi)
	}
	return q
}

func sendQuery(ctx context.Context, cl *client.Client, q aggQuery) (int64, error) {
	exact := client.Consistency{Exact: true}
	switch q.kind {
	case wire.AggRank:
		return cl.Rank(ctx, q.key, exact)
	case wire.AggSelect:
		return cl.Select(ctx, q.key, exact)
	case wire.AggCount:
		return cl.CountRange(ctx, q.key, q.to, exact)
	}
	return cl.SumRange(ctx, q.key, q.to, exact)
}

func (a *aggLoad) checkQuery(q aggQuery, got int64, err error) {
	if a.ck.op(err) {
		a.ck.expect(wire.AggName(q.kind), q.key, got, q.want)
	}
}

// agMeasure is one measured interval of the cycle loop.
type agMeasure struct {
	batch, agg summary
	cpuPerOp   float64
	ops        int64
	win        window
	m0, m1     promSample
	cs0, cs1   client.Stats
	cycles     []agCycle
	start      *aggModel // model at the window's start, for replays
}

func (a *aggLoad) measure(ctx context.Context, srv *serverProc, cl *client.Client, seconds float64, warm time.Duration, ts *traceSet) (*agMeasure, error) {
	tr := ts.lane()
	m := &agMeasure{}
	var batchLat, aggLat []float64
	loop := func(end time.Time, record bool) {
		for cycle := 0; time.Now().Before(end); cycle++ {
			ops := a.nextBatch()
			seq := uint64(cycle + 1)
			sp := tr.begin("client.batch", 0, seq, len(ops))
			t0 := time.Now()
			res, err := cl.Do(ctx, ops)
			t1 := time.Now()
			tr.end(sp)
			a.apply(ops, res, err)
			q := a.nextQuery(cycle)
			sp = tr.begin("client.agg", 0, seq, 1)
			t2 := time.Now()
			got, err := sendQuery(ctx, cl, q)
			t3 := time.Now()
			tr.end(sp)
			a.checkQuery(q, got, err)
			if record {
				batchLat = append(batchLat, float64(t1.Sub(t0).Nanoseconds())/1e3)
				aggLat = append(aggLat, float64(t3.Sub(t2).Nanoseconds())/1e3)
				m.ops += int64(len(ops)) + 1
				if tr != nil && len(m.cycles) < agReplayCycle {
					m.cycles = append(m.cycles, agCycle{ops: ops, q: q, got: got})
				}
			}
		}
	}
	loop(time.Now().Add(warm), false)
	if ts != nil {
		m.start = a.model.clone()
	}
	var err error
	if m.m0, err = scrape(srv.admin); err != nil {
		return nil, err
	}
	m.cs0 = cl.Stats()
	m.win.refBefore = refLoopNs()
	if err := m.win.open(os.Getpid(), srv.pid()); err != nil {
		return nil, err
	}
	loop(time.Now().Add(time.Duration(seconds*float64(time.Second))), true)
	if err := m.win.close(os.Getpid(), srv.pid()); err != nil {
		return nil, err
	}
	m.win.refAfter = refLoopNs()
	m.cs1 = cl.Stats()
	if m.m1, err = scrape(srv.admin); err != nil {
		return nil, err
	}
	m.batch, m.agg = summarize(batchLat), summarize(aggLat)
	m.cpuPerOp = m.win.cpuUsPerOp(m.ops)
	return m, nil
}

// startAggServer execs bstserve and prefills it; it returns the time from
// exec to the end of the prefill.
func startAggServer(ctx context.Context, cfg config, prefill []client.Op, tr *tracer, rep int) (*serverProc, *client.Client, float64, error) {
	t0 := time.Now()
	root := tr.begin("setup.prefill", 0, uint64(rep+1), len(prefill))
	srv, err := startServer(cfg.bstserve, filepath.Join(cfg.work, "logs", "agg-churn.log"), "-order-stats", "-capacity", "0")
	if err != nil {
		return nil, nil, 0, err
	}
	cl, _ := client.Dial(client.Config{Addr: srv.addr, Conns: 1, Seed: cfg.seed})
	for i := 0; i < len(prefill); i += agPrefill {
		chunk := prefill[i:min(i+agPrefill, len(prefill))]
		sp := tr.begin("client.batch", root, uint64(i+1), len(chunk))
		res, err := cl.Do(ctx, chunk)
		tr.end(sp)
		if err == nil {
			for _, r := range res {
				if err = r.Err; err == nil && !r.OK {
					err = errors.New("prefill insert reported no change")
				}
				if err != nil {
					break
				}
			}
		}
		if err != nil {
			cl.Close()
			srv.stop()
			return nil, nil, 0, fmt.Errorf("prefill: %w", err)
		}
	}
	tr.end(root)
	return srv, cl, time.Since(t0).Seconds(), nil
}

func runAggChurn(cfg config) (*runResult, error) {
	ctx := context.Background()
	res := newRunResult()
	a := newAggLoad(cfg.seed)
	prefill := a.prefillOps()
	for _, op := range prefill {
		a.model.set(int(op.Key), true)
	}
	var ts *traceSet
	if cfg.trace {
		ts = newTraceSet()
	}
	setupTr := ts.lane()
	reps := serveSetupReps
	if cfg.trace {
		reps = 2 * serveSetupReps
	}
	var setups, tracedSetups []float64
	var srv *serverProc
	var cl *client.Client
	defer func() {
		if srv != nil {
			cl.Close()
			srv.stop()
		}
	}()
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			cl.Close()
			srv.stop()
			srv = nil
		}
		traced := cfg.trace && rep%2 == 1
		var tr *tracer
		if traced {
			tr = setupTr
		}
		var s float64
		var err error
		if srv, cl, s, err = startAggServer(ctx, cfg, prefill, tr, rep); err != nil {
			return nil, err
		}
		if traced {
			tracedSetups = append(tracedSetups, s)
		} else {
			setups = append(setups, s)
		}
	}
	secs := float64(cfg.seconds)
	if cfg.trace {
		secs /= 2 * tracePairs
	}
	m, err := a.measure(ctx, srv, cl, secs, warmup, nil)
	if err != nil {
		return nil, err
	}
	var t *agMeasure
	var ovOp, ovGroup, ovCPU pairs
	for i, u := 0, m; cfg.trace && i < tracePairs; i++ {
		if i > 0 {
			if u, err = a.measure(ctx, srv, cl, secs, 0, nil); err != nil {
				return nil, err
			}
		}
		if t, err = a.measure(ctx, srv, cl, secs, 0, ts); err != nil {
			return nil, err
		}
		ovOp.add(u.agg.P50, t.agg.P50)
		ovGroup.add(u.batch.P50, t.batch.P50)
		ovCPU.add(u.cpuPerOp, t.cpuPerOp)
	}
	peak, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	mem, err := srv.liveHeapMB()
	if err != nil {
		return nil, err
	}
	res.ck.merge(&a.ck)
	// A shed request the client retried to success still failed once.
	res.ck.failed += int64(cl.Stats().Sheds)
	res.e2e["op_p50_us"] = m.agg.P50
	res.e2e["group_p50_us"] = m.batch.P50
	res.e2e["cpu_us_per_op"] = m.cpuPerOp
	res.e2e["setup_s"] = median(setups)
	res.e2e["mem_mb"] = mem
	res.timings["exact_agg"] = m.agg
	res.timings["batch64"] = m.batch
	res.diag["peak_rss_mb"] = peak
	res.diag["ops_per_s"] = float64(m.ops) / m.win.seconds()
	res.diag["queries_per_s"] = float64(m.agg.N) / m.win.seconds()
	m.win.env(res.diag)
	if !cfg.trace {
		return res, nil
	}

	l := res.layer
	t.win.env(l)
	ops := float64(t.ops)
	l["client.op_p99_us"] = t.agg.Tail
	l["client.group_p99_us"] = t.batch.Tail
	l["client.retries_per_kop"] = 1e3 * ratio(float64(t.cs1.Retries-t.cs0.Retries), ops)
	l["client.ops_per_s"] = ops / t.win.seconds()
	reqs := delta(t.m0, t.m1, "bst_server_requests_total")
	l["server.shed_ratio"] = ratio(delta(t.m0, t.m1, "bst_server_shed_total"), reqs)
	l["server.batch_ops_per_req"] = ratio(delta(t.m0, t.m1, "bst_server_batch_ops_total"), reqs)
	noContention(l)
	for _, k := range []string{"wal.appends_per_op", "wal.bytes_per_op", "wal.records_per_group", "wal.fsyncs_per_s",
		"durable.log_ns_per_op", "durable.recovery_s", "durable.replayed_ops", "core.ingest_op_us"} {
		l[k] = 0
	}
	enc, dec, bytes := replayWireCycles(ts.lane(), t.cycles)
	l["wire.encode_ns_per_op"], l["wire.decode_ns_per_op"], l["wire.bytes_per_op"] = enc, dec, bytes
	rp := replayOrderstat(ts.lane(), t.start, t.cycles, &res.ck)
	l["core.op_ns"] = rp.batchNsPerOp
	l["orderstat.exact_wave_us"] = rp.waveUs
	l["orderstat.exact_cached_us"] = rp.cachedUs
	// Two requests per cycle; what they spend outside the codec, the
	// tree batch and the refresh wave is the server's own time.
	perCycle := t.batch.P50 + t.agg.P50 - (enc+dec)*(agBatch+1)/1e3 - rp.batchNsPerOp*agBatch/1e3 - rp.waveUs
	l["server.self_us_per_req"] = perCycle / 2
	l["overhead.op_p50_us"] = ovOp.overhead()
	l["overhead.group_p50_us"] = ovGroup.overhead()
	l["overhead.cpu_us_per_op"] = ovCPU.overhead()
	l["overhead.setup_s"] = ratio(median(tracedSetups), median(setups)) - 1
	l["overhead.mem_mb"] = 0 // the tree lives in bstserve, which the benchmark does not trace
	res.timings["traced_exact_agg"] = t.agg
	res.timings["traced_batch64"] = t.batch
	res.spans = ts
	printSelfTimes(os.Stdout, selfTimes(ts.all()))
	return res, nil
}

// replayWireCycles encodes and decodes each cycle's batch and aggregate
// frames, requests and responses, with direct wire calls. Results are per
// operation (agBatch mutations plus one query per cycle).
func replayWireCycles(tr *tracer, cycles []agCycle) (encNs, decNs, bytesPerOp float64) {
	if len(cycles) == 0 {
		return 0, 0, 0
	}
	type frames struct{ breq, bresp, areq, aresp []byte }
	fs := make([]frames, len(cycles))
	bops := make([]wire.BatchOp, agBatch)
	bres := make([]wire.BatchResult, agBatch)
	nops := len(cycles) * (agBatch + 1)
	sp := tr.begin("wire.encode", 0, 1, nops)
	t0 := time.Now()
	for i, c := range cycles {
		for j, op := range c.ops {
			bops[j] = wire.BatchOp{Op: op.Kind, Key: op.Key}
			bres[j] = wire.BatchResult{Status: wire.StatusOK, OK: true}
		}
		id := uint64(2*i + 1)
		fs[i].breq = wire.AppendBatchRequest(nil, id, 0, rtrace.Context{}, bops[:len(c.ops)])
		fs[i].bresp = wire.AppendBatchResponse(nil, id, bres[:len(c.ops)])
		fs[i].areq = wire.AppendAggregateRequest(nil, wire.AggregateRequest{ID: id + 1, Kind: c.q.kind, Mode: wire.AggModeExact, Key: c.q.key, To: c.q.to})
		fs[i].aresp = wire.AppendAggregateResponse(nil, wire.AggregateResponse{ID: id + 1, Status: wire.StatusOK, Value: c.got})
	}
	enc := time.Since(t0)
	tr.end(sp)
	sp = tr.begin("wire.decode", 0, 1, nops)
	t0 = time.Now()
	bad := 0
	for i, c := range cycles {
		got, err1 := wire.DecodeBatchOps(fs[i].breq, bops[:0])
		_, _, rs, err2 := wire.DecodeBatchResponse(fs[i].bresp, bres[:0])
		q, err3 := wire.DecodeAggregate(fs[i].areq)
		p, err4 := wire.DecodeAggregateResponse(fs[i].aresp)
		if errors.Join(err1, err2, err3, err4) != nil || len(got) != len(c.ops) || len(rs) != len(c.ops) || q.Key != c.q.key || p.Value != c.got {
			bad++
		}
	}
	dec := time.Since(t0)
	tr.end(sp)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "ledger: %d wire cycles did not round-trip\n", bad)
	}
	var bytes int
	for _, f := range fs {
		bytes += len(f.breq) + len(f.bresp) + len(f.areq) + len(f.aresp) + 16
	}
	n := float64(nops)
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, float64(bytes) / n
}

type orderstatReplay struct{ batchNsPerOp, waveUs, cachedUs float64 }

// replayOrderstat rebuilds the window's starting key set in an in-process
// order-statistics tree and replays the recorded cycles through direct
// calls: the batch through an accessor, then the Exact query twice, once
// paying the refresh wave and once served from the fresh summary. Both
// answers must equal what the server returned. Times are per-cycle
// medians.
func replayOrderstat(tr *tracer, start *aggModel, cycles []agCycle, ck *checker) orderstatReplay {
	var r orderstatReplay
	if start == nil || len(cycles) == 0 {
		return r
	}
	t := bst.New(bst.WithReclamation(), bst.WithOrderStatistics())
	defer t.Close()
	acc := t.NewAccessor()
	defer acc.Close()
	var keys []int64
	for k := 0; k < agRange; k++ {
		if start.keys.has(k) {
			keys = append(keys, int64(k))
		}
	}
	// Load the way the server was loaded: random chunks, each applied as
	// one sorted batch, so the wave walks a similarly laid-out tree.
	rand.New(rand.NewSource(int64(len(keys)))).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	loaded := make([]bst.OpResult, agPrefill)
	for i := 0; i < len(keys); i += agPrefill {
		chunk := keys[i:min(i+agPrefill, len(keys))]
		sort.Slice(chunk, func(a, b int) bool { return chunk[a] < chunk[b] })
		acc.InsertBatch(chunk, loaded[:len(chunk)])
	}
	query := func(q aggQuery) int64 {
		var v int
		var k int64
		var err error
		switch q.kind {
		case wire.AggRank:
			v, err = t.Rank(q.key, bst.Exact)
		case wire.AggSelect:
			k, err = t.Select(int(q.key), bst.Exact)
			v = int(k)
		case wire.AggCount:
			v, err = t.CountRange(q.key, q.to, bst.Exact)
		default:
			k, err = t.SumRange(q.key, q.to, bst.Exact)
			v = int(k)
		}
		if err != nil {
			return -1
		}
		return int64(v)
	}
	var ins, del []int64
	out := make([]bst.OpResult, agBatch)
	var batchNs, waveUs, cachedUs []float64
	for i, c := range cycles {
		ins, del = ins[:0], del[:0]
		for _, op := range c.ops {
			if op.Kind == wire.OpInsert {
				ins = append(ins, op.Key)
			} else {
				del = append(del, op.Key)
			}
		}
		sort.Slice(ins, func(a, b int) bool { return ins[a] < ins[b] })
		sort.Slice(del, func(a, b int) bool { return del[a] < del[b] })
		seq := uint64(i + 1)
		sp := tr.begin("store.batch", 0, seq, len(c.ops))
		t0 := time.Now()
		acc.InsertBatch(ins, out[:len(ins)])
		acc.DeleteBatch(del, out[:len(del)])
		t1 := time.Now()
		tr.end(sp)
		sp = tr.begin("orderstat.exact_wave", 0, seq, 1)
		v1 := query(c.q)
		t2 := time.Now()
		tr.end(sp)
		sp = tr.begin("orderstat.exact_cached", 0, seq, 1)
		v2 := query(c.q)
		t3 := time.Now()
		tr.end(sp)
		batchNs = append(batchNs, float64(t1.Sub(t0).Nanoseconds())/float64(len(c.ops)))
		waveUs = append(waveUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
		cachedUs = append(cachedUs, float64(t3.Sub(t2).Nanoseconds())/1e3)
		ck.expect("replay "+wire.AggName(c.q.kind), c.q.key, v1, c.got)
		ck.expect("replay cached "+wire.AggName(c.q.kind), c.q.key, v2, c.got)
	}
	// Medians, like the round trips they are subtracted from.
	r.batchNsPerOp, r.waveUs, r.cachedUs = median(batchNs), median(waveUs), median(cachedUs)
	return r
}
