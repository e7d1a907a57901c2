package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/wal"
	"repro/internal/wire"
)

// serve-durable: bstserve -sync interval restarted on a fresh copy of a
// data directory holding a snapshot of about half of a 1M-key range plus
// a WAL tail. Connection 1 sends single-op round trips, connection 2
// pipelined bursts; each owns half the keys (by parity) and checks every
// answer against its own model. The two take turns in fixed-size slices
// rather than running at once: on two cores, concurrent streams share CPU
// in proportions that follow host steal, which moved single-op latency by
// a quarter and CPU per op by a tenth from run to run.
const (
	sdRange       = 1_000_000
	sdTail        = 100_000 // WAL records after the snapshot
	sdBurst       = 64
	sdSingles     = 100     // single ops per slice
	sdBursts      = 10      // bursts per slice
	sdCkptEvery   = 50_000  // logged mutations per automatic checkpoint: several per run
	sdReplayOps   = 100_000 // operations replayed per direct-call layer in the traced run
	sdReplayChunk = 2_000   // operations per alternating store-replay chunk
	warmup        = time.Second
)

// opRec is one operation the load issued, kept for the traced run's
// direct replays of the wire and store layers.
type opRec struct {
	kind uint8 // wire.OpLookup, wire.OpInsert or wire.OpDelete
	key  int64
	ok   bool
}

func pickKind(r *rand.Rand) uint8 {
	switch r.Intn(4) {
	case 0:
		return wire.OpInsert
	case 1:
		return wire.OpDelete
	}
	return wire.OpLookup
}

// buildDurableBase builds the seed's data directory afresh and returns the
// key set it holds: a checkpointed snapshot of the prefill, then a WAL tail
// of sdTail toggles that recovery has to replay. It is rebuilt on every run
// so that recovery always reads the layout this checkout writes.
func buildDurableBase(dir string, seed int64) (*bitset, error) {
	rng := rand.New(rand.NewSource(seed))
	model := newBitset(sdRange)
	var order []int64
	for k := 0; k < sdRange; k++ {
		if rng.Intn(2) == 0 {
			model.set(k, true)
			order = append(order, int64(k))
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := durable.Open(dir, durable.Options{Sync: wal.SyncNone, TreeOptions: []bst.Option{bst.WithReclamation()}})
	if err != nil {
		return nil, fmt.Errorf("build data dir: %w", err)
	}
	acc := d.NewAccessor()
	for _, k := range order {
		if !acc.Insert(k) {
			return nil, fmt.Errorf("build data dir: insert %d refused", k)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		return nil, fmt.Errorf("build data dir: %w", err)
	}
	for i := 0; i < sdTail; i++ {
		k := rng.Intn(sdRange)
		present := model.has(k)
		model.set(k, !present)
		var ok bool
		if present {
			ok = acc.Delete(int64(k))
		} else {
			ok = acc.Insert(int64(k))
		}
		if !ok {
			return nil, fmt.Errorf("build data dir: mutation of %d refused", k)
		}
	}
	acc.Close()
	// Crash, not Close: Close would checkpoint and leave no WAL tail for
	// recovery to replay.
	if err := d.Crash(); err != nil {
		return nil, fmt.Errorf("build data dir: %w", err)
	}
	return model, nil
}

// split gives each connection its own model: keys of parity p, indexed k/2.
func split(m *bitset, p int) *bitset {
	out := newBitset(sdRange / 2)
	for i := 0; i < sdRange/2; i++ {
		out.set(i, m.has(2*i+p))
	}
	return out
}

// sdConn is one connection's closed loop and what it measured.
type sdConn struct {
	part  int
	model *bitset
	rng   *rand.Rand
	ck    checker
	lat   []float64 // µs per single op, or per burst
	ops   int64     // operations completed inside the window
	rec   []opRec
	tr    *tracer
	seq   uint64
}

func (c *sdConn) key() (int, int64) {
	i := c.rng.Intn(sdRange / 2)
	return i, int64(2*i + c.part)
}

func (c *sdConn) check(kind uint8, i int, key int64, got bool, err error) opRec {
	r := opRec{kind: kind, key: key, ok: got}
	if !c.ck.op(err) {
		return r
	}
	present := c.model.has(i)
	switch kind {
	case wire.OpLookup:
		c.ck.expectBool("lookup", key, got, present)
	case wire.OpInsert:
		c.ck.expectBool("insert", key, got, !present)
		c.model.set(i, true)
	case wire.OpDelete:
		c.ck.expectBool("delete", key, got, present)
		c.model.set(i, false)
	}
	return r
}

// singles runs n request-per-round-trip operations, recording those that
// complete inside [from, end).
func (c *sdConn) singles(ctx context.Context, cl *client.Client, n int, from, end time.Time) {
	for ; n > 0; n-- {
		c.seq++
		seq := c.seq
		kind := pickKind(c.rng)
		i, key := c.key()
		t0 := time.Now()
		sp := c.tr.begin("client.op", 0, seq, 1)
		var got bool
		var err error
		switch kind {
		case wire.OpLookup:
			got, err = cl.Lookup(ctx, key)
		case wire.OpInsert:
			got, err = cl.Insert(ctx, key)
		default:
			got, err = cl.Delete(ctx, key)
		}
		c.tr.end(sp)
		t1 := time.Now()
		r := c.check(kind, i, key, got, err)
		if t0.After(from) && t1.Before(end) {
			c.lat = append(c.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
			c.ops++
			if c.tr != nil {
				c.rec = append(c.rec, r)
			}
		}
	}
}

// bursts runs n pipelined bursts of sdBurst distinct keys, recording
// those that complete inside [from, end).
func (c *sdConn) bursts(ctx context.Context, p *client.Pipeline, n int, from, end time.Time) {
	seen := make(map[int]bool, sdBurst)
	idx := make([]int, sdBurst)
	ops := make([]client.Op, sdBurst)
	futs := make([]*client.Future, sdBurst)
	got := make([]bool, sdBurst)
	errs := make([]error, sdBurst)
	for ; n > 0; n-- {
		c.seq++
		seq := c.seq
		clear(seen)
		for j := range ops {
			i, key := c.key()
			for seen[i] {
				i, key = c.key()
			}
			seen[i] = true
			idx[j] = i
			ops[j] = client.Op{Kind: pickKind(c.rng), Key: key}
		}
		t0 := time.Now()
		root := c.tr.begin("client.group", 0, seq, sdBurst)
		sp := c.tr.begin("client.submit", root, seq, sdBurst)
		var subErr error
		for j, op := range ops {
			if futs[j], subErr = p.Submit(ctx, op); subErr != nil {
				break
			}
		}
		if subErr == nil {
			subErr = p.Flush()
		}
		c.tr.end(sp)
		if subErr != nil {
			c.ck.op(subErr)
			return
		}
		sp = c.tr.begin("client.wait", root, seq, sdBurst)
		for j := range futs {
			got[j], errs[j] = futs[j].Wait(ctx)
		}
		c.tr.end(sp)
		c.tr.end(root)
		t1 := time.Now()
		inWindow := t0.After(from) && t1.Before(end)
		for j, op := range ops {
			r := c.check(op.Kind, idx[j], op.Key, got[j], errs[j])
			if inWindow && c.tr != nil {
				c.rec = append(c.rec, r)
			}
		}
		if inWindow {
			c.lat = append(c.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
			c.ops += sdBurst
		}
	}
}

// sdMeasure is one measured interval of both connections.
type sdMeasure struct {
	single, burst summary
	cpuPerOp      float64
	ops           int64
	win           window
	m0, m1        promSample
	cs0, cs1      client.Stats
	rec           []opRec
}

func measureServeDurable(ctx context.Context, srv *serverProc, conns [2]*sdConn, cls [2]*client.Client, pipe *client.Pipeline, seconds float64, warm time.Duration, ts *traceSet) (*sdMeasure, error) {
	for _, c := range conns {
		c.lat, c.ops, c.rec, c.tr = c.lat[:0], 0, nil, ts.lane()
	}
	m := &sdMeasure{}
	m.win.refBefore = refLoopNs()
	from := time.Now().Add(warm)
	end := from.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(end) {
			conns[0].singles(ctx, cls[0], sdSingles, from, end)
			conns[1].bursts(ctx, pipe, sdBursts, from, end)
		}
	}()
	// The scrape is an HTTP round trip, so it goes first; the CPU reads
	// are quick and sit on the window's edges.
	time.Sleep(time.Until(from) - 20*time.Millisecond)
	var err error
	m.m0, err = scrape(srv.admin)
	m.cs0 = sumStats(cls)
	time.Sleep(time.Until(from))
	if err == nil {
		err = m.win.open(os.Getpid(), srv.pid())
	}
	time.Sleep(time.Until(end))
	if err == nil {
		err = m.win.close(os.Getpid(), srv.pid())
	}
	wg.Wait()
	m.win.refAfter = refLoopNs()
	m.cs1 = sumStats(cls)
	if err == nil {
		m.m1, err = scrape(srv.admin)
	}
	if err != nil {
		return nil, err
	}
	m.single, m.burst = summarize(conns[0].lat), summarize(conns[1].lat)
	m.ops = conns[0].ops + conns[1].ops
	m.cpuPerOp = m.win.cpuUsPerOp(m.ops)
	m.rec = append(append([]opRec(nil), conns[0].rec...), conns[1].rec...)
	return m, nil
}

func sumStats(cls [2]*client.Client) client.Stats {
	a, b := cls[0].Stats(), cls[1].Stats()
	return client.Stats{Requests: a.Requests + b.Requests, Retries: a.Retries + b.Retries,
		Sheds: a.Sheds + b.Sheds, TransportErrors: a.TransportErrors + b.TransportErrors}
}

func runServeDurable(cfg config) (*runResult, error) {
	ctx := context.Background()
	res := newRunResult()
	base := filepath.Join(cfg.work, "data", "serve-durable-base")
	model, err := buildDurableBase(base, cfg.seed)
	if err != nil {
		return nil, err
	}
	args := func(dir string) []string {
		return []string{"-data", dir, "-sync", "interval", "-checkpoint-every", fmt.Sprint(sdCkptEvery), "-capacity", "0"}
	}
	var ts *traceSet
	if cfg.trace {
		ts = newTraceSet()
	}
	setupTr := ts.lane()
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var cls [2]*client.Client
	var setups, tracedSetups []float64
	reps := serveSetupReps
	if cfg.trace {
		reps = 2 * serveSetupReps // alternate untraced and traced set-ups
	}
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			srv.stop()
			cls[0].Close()
			srv = nil
		}
		dir := filepath.Join(cfg.work, "data", "serve-durable-run")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := copyDir(base, dir); err != nil {
			return nil, err
		}
		traced := cfg.trace && rep%2 == 1
		var tr *tracer
		if traced {
			tr = setupTr
		}
		t0 := time.Now()
		sp := tr.begin("setup.recover", 0, uint64(rep+1), 1)
		srv, err = startServer(cfg.bstserve, filepath.Join(cfg.work, "logs", "serve-durable.log"), args(dir)...)
		if err != nil {
			return nil, err
		}
		cls[0], _ = client.Dial(client.Config{Addr: srv.addr, Conns: 1, Seed: cfg.seed})
		fctx, cancel := context.WithTimeout(ctx, 120*time.Second)
		err = firstSuccess(fctx, cls[0])
		cancel()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if traced {
			tracedSetups = append(tracedSetups, time.Since(t0).Seconds())
		} else {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	cls[1], _ = client.Dial(client.Config{Addr: srv.addr, Conns: 1, Seed: cfg.seed + 1})
	defer cls[0].Close()
	defer cls[1].Close()
	pipe, err := cls[1].NewPipeline(ctx)
	if err != nil {
		return nil, err
	}
	defer pipe.Close()
	var conns [2]*sdConn
	for p := range conns {
		conns[p] = &sdConn{part: p, model: split(model, p), rng: rand.New(rand.NewSource(cfg.seed*31 + int64(p)))}
	}

	secs := float64(cfg.seconds)
	if cfg.trace {
		secs /= 2 * tracePairs
	}
	m, err := measureServeDurable(ctx, srv, conns, cls, pipe, secs, warmup, nil)
	if err != nil {
		return nil, err
	}
	var t *sdMeasure
	var ovOp, ovGroup, ovCPU pairs
	for i, u := 0, m; cfg.trace && i < tracePairs; i++ {
		if i > 0 {
			if u, err = measureServeDurable(ctx, srv, conns, cls, pipe, secs, 0, nil); err != nil {
				return nil, err
			}
		}
		if t, err = measureServeDurable(ctx, srv, conns, cls, pipe, secs, 0, ts); err != nil {
			return nil, err
		}
		ovOp.add(u.single.P50, t.single.P50)
		ovGroup.add(u.burst.P50, t.burst.P50)
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
	srv.stop()
	for _, c := range conns {
		res.ck.merge(&c.ck)
	}
	// A shed request the client retried to success still failed once.
	res.ck.failed += int64(sumStats(cls).Sheds)
	res.e2e["op_p50_us"] = m.single.P50
	res.e2e["group_p50_us"] = m.burst.P50
	res.e2e["cpu_us_per_op"] = m.cpuPerOp
	res.e2e["setup_s"] = median(setups)
	res.e2e["mem_mb"] = mem
	res.timings["single_op"] = m.single
	res.timings["burst64"] = m.burst
	res.diag["ops_per_s"] = float64(m.ops) / m.win.seconds()
	res.diag["peak_rss_mb"] = peak
	res.diag["ckpts_in_window"] = delta(m.m0, m.m1, "bst_snapshots_total")
	m.win.env(res.diag)
	if !cfg.trace {
		return res, nil
	}

	// Traced run: counters at the edges of the last traced slice, then
	// direct calls into the wire and store layers on its own operations.
	l := res.layer
	t.win.env(l)
	ops := float64(t.ops)
	l["client.op_p99_us"] = t.single.Tail
	l["client.group_p99_us"] = t.burst.Tail
	l["client.retries_per_kop"] = 1e3 * ratio(float64(t.cs1.Retries-t.cs0.Retries), ops)
	l["client.ops_per_s"] = ops / t.win.seconds()
	reqs := delta(t.m0, t.m1, "bst_server_requests_total")
	l["server.shed_ratio"] = ratio(delta(t.m0, t.m1, "bst_server_shed_total"), reqs)
	l["server.batch_ops_per_req"] = ratio(delta(t.m0, t.m1, "bst_server_batch_ops_total"), reqs)
	noContention(l)
	l["wal.appends_per_op"] = ratio(delta(t.m0, t.m1, "bst_wal_append_total"), ops)
	l["wal.bytes_per_op"] = ratio(delta(t.m0, t.m1, "bst_wal_bytes_written_total"), ops)
	l["wal.records_per_group"] = ratio(delta(t.m0, t.m1, "bst_wal_group_records_total"), delta(t.m0, t.m1, "bst_wal_group_commits_total"))
	l["wal.fsyncs_per_s"] = delta(t.m0, t.m1, "bst_wal_fsync_total") / t.win.seconds()
	l["core.ingest_op_us"] = 0
	l["orderstat.exact_wave_us"] = 0
	l["orderstat.exact_cached_us"] = 0

	recs := t.rec
	if len(recs) > sdReplayOps {
		recs = recs[:sdReplayOps]
	}
	enc, dec, bytes := replayWireSingles(ts.lane(), recs)
	l["wire.encode_ns_per_op"], l["wire.decode_ns_per_op"], l["wire.bytes_per_op"] = enc, dec, bytes
	durNs, bstNs, rs, err := replayDurableStore(cfg, ts.lane(), base, recs)
	if err != nil {
		return nil, err
	}
	l["core.op_ns"] = bstNs
	l["durable.log_ns_per_op"] = durNs - bstNs
	l["durable.recovery_s"] = rs.Duration.Seconds()
	l["durable.replayed_ops"] = float64(rs.ReplayedOps)
	// What a round trip spends outside the wire codec and the store.
	l["server.self_us_per_req"] = t.single.P50 - (enc+dec+durNs)/1e3
	l["overhead.op_p50_us"] = ovOp.overhead()
	l["overhead.group_p50_us"] = ovGroup.overhead()
	l["overhead.cpu_us_per_op"] = ovCPU.overhead()
	l["overhead.setup_s"] = ratio(median(tracedSetups), median(setups)) - 1
	l["overhead.mem_mb"] = 0 // the tree lives in bstserve, which the benchmark does not trace
	res.timings["traced_single_op"] = t.single
	res.timings["traced_burst64"] = t.burst
	res.spans = ts
	printSelfTimes(os.Stdout, selfTimes(ts.all()))
	return res, nil
}

// replayWireSingles encodes and decodes the request and response frames
// of recs with direct wire calls; it returns ns per op for each direction
// of work and bytes on the wire per op (4-byte length prefixes included).
func replayWireSingles(tr *tracer, recs []opRec) (encNs, decNs, bytesPerOp float64) {
	if len(recs) == 0 {
		return 0, 0, 0
	}
	reqs := make([][]byte, len(recs))
	resps := make([][]byte, len(recs))
	var bytes int
	sp := tr.begin("wire.encode", 0, 1, len(recs))
	t0 := time.Now()
	for i, r := range recs {
		reqs[i] = wire.AppendRequest(make([]byte, 0, 32), wire.Request{ID: uint64(i + 1), Op: r.kind, Key: r.key})
		resps[i] = wire.AppendResponse(make([]byte, 0, 16), wire.Response{ID: uint64(i + 1), Status: wire.StatusOK, OK: r.ok})
	}
	enc := time.Since(t0)
	tr.end(sp)
	sp = tr.begin("wire.decode", 0, 1, len(recs))
	t0 = time.Now()
	var bad int
	for i := range recs {
		q, err1 := wire.DecodeRequest(reqs[i])
		p, err2 := wire.DecodeResponse(resps[i])
		if err1 != nil || err2 != nil || q.Key != recs[i].key || p.OK != recs[i].ok {
			bad++
		}
	}
	dec := time.Since(t0)
	tr.end(sp)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "ledger: %d wire frames did not round-trip\n", bad)
	}
	for i := range recs {
		bytes += len(reqs[i]) + len(resps[i]) + 8
	}
	n := float64(len(recs))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, float64(bytes) / n
}

// replayDurableStore recovers the seed's data directory in-process and
// replays recs straight into the store in alternating chunks: one through
// a durable.Tree accessor (tree op plus WAL logging), the next through the
// plain bst accessor underneath it. Alternating chunks see the same tree
// size and host conditions, so their difference is the logging cost. It
// returns ns per op for each path and the recovery's statistics.
func replayDurableStore(cfg config, tr *tracer, base string, recs []opRec) (durNs, bstNs float64, rs durable.RecoveryStats, err error) {
	dir := filepath.Join(cfg.work, "data", "serve-durable-replay")
	if err = os.RemoveAll(dir); err != nil {
		return
	}
	if err = copyDir(base, dir); err != nil {
		return
	}
	sp := tr.begin("durable.Open", 0, 0, 1)
	d, err := durable.Open(dir, durable.Options{Sync: wal.SyncInterval, SyncInterval: 5 * time.Millisecond, TreeOptions: []bst.Option{bst.WithReclamation()}})
	tr.end(sp)
	if err != nil {
		return
	}
	defer d.Crash() // a throwaway copy: skip the final checkpoint
	accs := [2]bst.Accessor{d.NewAccessor(), d.Underlying().NewAccessor()}
	names := [2]string{"store.durable", "store.bst"}
	defer accs[0].Close()
	defer accs[1].Close()
	var el [2]time.Duration
	var n [2]int
	for i, c := 0, 0; i < len(recs); i, c = i+sdReplayChunk, c+1 {
		chunk := recs[i:min(i+sdReplayChunk, len(recs))]
		p := c % 2
		acc := accs[p]
		sp := tr.begin(names[p], 0, uint64(i+1), len(chunk))
		t0 := time.Now()
		for _, r := range chunk {
			switch r.kind {
			case wire.OpLookup:
				acc.Contains(r.key)
			case wire.OpInsert:
				acc.Insert(r.key)
			default:
				acc.Delete(r.key)
			}
		}
		el[p] += time.Since(t0)
		tr.end(sp)
		n[p] += len(chunk)
	}
	return ratio(float64(el[0].Nanoseconds()), float64(n[0])), ratio(float64(el[1].Nanoseconds()), float64(n[1])), d.RecoveryStats(), nil
}
