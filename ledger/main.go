// Command ledger is the repository's benchmark: three closed-loop
// workloads that measure the store end to end (a real client against a
// real bstserve, or the tree in-process), with an optional traced run
// that splits the time across the layers the benchmark calls into.
//
// Build and run it through run.sh from the repository root:
//
//	bash ledger/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
//
// --workload all runs the three workloads in turn, each ending its report
// with its own result line.
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones. README.md in
// this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the store sees; every workload
// reports each of them from its own load.
var endToEnd = []metricDef{
	{"op_p50_us", "us"},     // one operation: single-op round trip, Exact aggregate, tree op
	{"group_p50_us", "us"},  // one group: 64-op pipelined burst, 64-op batch, 16 ingest pairs
	{"cpu_us_per_op", "us"}, // user+sys CPU of every process involved, per completed op
	{"setup_s", "s"},        // median of several set-ups in one run
	{"mem_mb", "MiB"},       // live heap, after a forced collection, of the process holding the tree
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"client.op_p99_us", "us"},
	{"client.group_p99_us", "us"},
	{"client.retries_per_kop", "count"},
	{"client.ops_per_s", "1/s"},
	{"wire.encode_ns_per_op", "ns"},
	{"wire.decode_ns_per_op", "ns"},
	{"wire.bytes_per_op", "B"},
	{"server.self_us_per_req", "us"},
	{"server.shed_ratio", "ratio"},
	{"server.batch_ops_per_req", "count"},
	{"core.op_ns", "ns"},
	{"core.cas_fail_per_kop", "count"},
	{"core.help_per_kop", "count"},
	{"core.restarts_per_kop", "count"},
	{"core.ingest_op_us", "us"},
	{"orderstat.exact_wave_us", "us"},
	{"orderstat.exact_cached_us", "us"},
	{"durable.log_ns_per_op", "ns"},
	{"wal.appends_per_op", "count"},
	{"wal.bytes_per_op", "B"},
	{"wal.records_per_group", "count"},
	{"wal.fsyncs_per_s", "1/s"},
	{"durable.recovery_s", "s"},
	{"durable.replayed_ops", "count"},
	{"env.steal_share", "ratio"},
	{"env.ref_loop_ns", "ns"},
	{"overhead.op_p50_us", "ratio"},
	{"overhead.group_p50_us", "ratio"},
	{"overhead.cpu_us_per_op", "ratio"},
	{"overhead.setup_s", "ratio"},
	{"overhead.mem_mb", "ratio"},
}

// noContention records the core tree's contention ratios, which read 0
// on every workload: bstserve builds its tree without bst.WithMetrics and
// so exports no tree counters, and the two streams of embedded-window take
// turns, so they never contend.
func noContention(l map[string]float64) {
	for _, k := range []string{"core.cas_fail_per_kop", "core.help_per_kop", "core.restarts_per_kop"} {
		l[k] = 0
	}
}

// tracePairs is how many adjacent untraced/traced slice pairs a traced
// run measures. Tracing overhead is the median ratio over the pairs, so
// host drift between slices far apart is not counted as tracing cost.
const tracePairs = 3

// pairs collects one metric's ratio traced/untraced per slice pair.
type pairs []float64

func (p *pairs) add(untraced, traced float64) { *p = append(*p, ratio(traced, untraced)) }

func (p pairs) overhead() float64 { return median(p) - 1 }

// A run sets up this many times and reports the median as setup_s; the
// in-process set-up is longer and steadier, so it repeats fewer times.
const (
	serveSetupReps = 5
	setupReps      = 3
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bstserve string // path of the bstserve binary
	work     string // work directory inside the checkout
}

// runResult is what one workload run measured.
type runResult struct {
	ck      checker
	e2e     map[string]float64
	layer   map[string]float64
	timings map[string]summary // printed beside the metrics
	diag    map[string]float64 // printed, never gated
	spans   *traceSet
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layer: map[string]float64{},
		timings: map[string]summary{}, diag: map[string]float64{}}
}

var workloads = map[string]func(config) (*runResult, error){
	"serve-durable":   runServeDurable,
	"agg-churn":       runAggChurn,
	"embedded-window": runEmbeddedWindow,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"serve-durable", "agg-churn", "embedded-window"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-durable | agg-churn | embedded-window | all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bstserve, "bstserve", "", "bstserve binary built from this checkout")
	flag.StringVar(&cfg.work, "work", "", "work directory for data, logs and spans")
	flag.Parse()
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	if _, ok := workloads[names[0]]; !ok || cfg.bstserve == "" || cfg.work == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: ledger --workload serve-durable|agg-churn|embedded-window|all --seed N --seconds S --trace 0|1 --bstserve BIN --work DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(cfg.work, "logs"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	for _, name := range names {
		cfg.workload = name
		if err := runOne(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// runOne runs one workload and prints its report; the last line is the
// result object.
func runOne(cfg config) error {
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	if res.spans != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := res.spans.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Println("spans:", path)
	}
	printReport(cfg, res)
	defs, values := endToEnd, res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layer
	}
	line, err := resultLine(res, defs, values)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object; every defined metric must
// have been measured.
func resultLine(res *runResult, defs []metricDef, values map[string]float64) (string, error) {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	attempted := res.ck.attempted
	if attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.ck.wrong == 0, attempted, res.ck.failed, m})
	return string(b), err
}

func printReport(cfg config, res *runResult) {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("ops attempted %d failed %d (%.4f%%) wrong %d\n", res.ck.attempted, res.ck.failed,
		100*ratio(float64(res.ck.failed), float64(res.ck.attempted)), res.ck.wrong)
	if res.ck.firstWrong != "" {
		fmt.Println("first wrong answer:", res.ck.firstWrong)
	}
	for _, name := range sortedKeys(res.timings) {
		s := res.timings[name]
		fmt.Printf("timing %-20s p50 %10.3f us  p%-6.4g %10.3f us  n=%d\n", name, s.P50, s.TailQ*100, s.Tail, s.N)
	}
	for _, d := range endToEnd {
		if v, ok := res.e2e[d.name]; ok {
			fmt.Printf("metric %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.layer[d.name]; ok {
			fmt.Printf("layer  %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, name := range sortedKeys(res.diag) {
		fmt.Printf("diag   %-28s %14.4f\n", name, res.diag[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// window is one measured interval: host diagnostics and CPU of the
// processes involved, read at both ends. The reference loop is timed by
// the caller while no load runs, before the load starts and after it has
// stopped, so it neither competes with the timed operations nor delays
// the CPU reads that open and close the window.
type window struct {
	start, end          time.Time
	cpu0, cpu1          float64
	host0, host1        cpuTimes
	refBefore, refAfter float64
}

func (w *window) open(pids ...int) error {
	w.host0 = readCPUTimes()
	c, err := cpuOf(pids)
	w.cpu0 = c
	w.start = time.Now()
	return err
}

func (w *window) close(pids ...int) error {
	w.end = time.Now()
	c, err := cpuOf(pids)
	w.cpu1 = c
	w.host1 = readCPUTimes()
	return err
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func (w *window) cpuUsPerOp(ops int64) float64 { return ratio((w.cpu1-w.cpu0)*1e6, float64(ops)) }

// env records the host diagnostics beside a run's metrics. They explain
// a slow run; nothing filters or normalises by them.
func (w *window) env(out map[string]float64) {
	out["env.steal_share"] = stealShare(w.host0, w.host1)
	out["env.ref_loop_ns"] = (w.refBefore + w.refAfter) / 2
}

func cpuOf(pids []int) (float64, error) {
	var sum float64
	for _, p := range pids {
		c, err := cpuSeconds(p)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}
