package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestCheckerFlagsWrongAnswer(t *testing.T) {
	m := newAggModel(100)
	for _, k := range []int{3, 10, 50, 99} {
		m.set(k, true)
	}
	var ck checker
	q := aggQuery{key: 10, to: 60}
	if !ck.expect("count", q.key, m.countRange(10, 60), 2) {
		t.Fatalf("right answer flagged: %s", ck.firstWrong)
	}
	ck.expect("count", q.key, 3, m.countRange(10, 60)) // injected wrong answer
	ck.expectBool("lookup", 4, true, m.keys.has(4))    // injected wrong answer
	if ck.wrong != 2 || ck.failed != 2 || ck.firstWrong == "" {
		t.Fatalf("wrong=%d failed=%d first=%q, want 2 wrong answers flagged", ck.wrong, ck.failed, ck.firstWrong)
	}
	ck.op(errors.New("transport")) // an error fails the op but is not a wrong answer
	if ck.failed != 3 || ck.wrong != 2 || ck.attempted != 1 {
		t.Fatalf("after error: attempted=%d failed=%d wrong=%d", ck.attempted, ck.failed, ck.wrong)
	}
	res := newRunResult()
	res.ck = ck
	for _, d := range endToEnd {
		res.e2e[d.name] = 1
	}
	line, err := resultLine(res, endToEnd, res.e2e)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Correct bool }
	if err := json.Unmarshal([]byte(line), &out); err != nil || out.Correct {
		t.Fatalf("result line %s must report correct=false", line)
	}
}

func TestAggModelMatchesScan(t *testing.T) {
	m := newAggModel(1000)
	keys := []int{}
	for k := 0; k < 1000; k += 7 {
		m.set(k, true)
		keys = append(keys, k)
	}
	m.set(14, false)
	keys = append(keys[:2], keys[3:]...)
	for i, k := range keys {
		if got := m.selectKey(int64(i)); got != int64(k) {
			t.Fatalf("select(%d) = %d, want %d", i, got, k)
		}
		if got := m.rank(k); got != int64(i) {
			t.Fatalf("rank(%d) = %d, want %d", k, got, i)
		}
	}
	var c, s int64
	for _, k := range keys {
		if k >= 100 && k <= 500 {
			c, s = c+1, s+int64(k)
		}
	}
	if m.countRange(100, 500) != c || m.sumRange(100, 500) != s {
		t.Fatalf("count/sum [100,500] = %d/%d, want %d/%d", m.countRange(100, 500), m.sumRange(100, 500), c, s)
	}
}

func TestSummarizeReportsSampleCounts(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		tailQ float64
	}{{5, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		s := summarize(series(tc.n))
		if s.N != tc.n || s.TailQ != tc.tailQ {
			t.Errorf("n=%d: got N=%d tail q=%v, want N=%d q=%v", tc.n, s.N, s.TailQ, tc.n, tc.tailQ)
		}
		if want := float64(tc.n+1) / 2; s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", tc.n, s.P50, want)
		}
		if s.TailQ > 0 && float64(s.N)*(1-s.TailQ)+1e-9 < tailMin {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", tc.n, s.TailQ*100, tailMin)
		}
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
	// BENCHMARK.json must declare exactly the metrics the benchmark emits.
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: benchmark emits %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: emits %s (%s), declared %s (%s)", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestAggChurnMutationsPrecedeEveryQuery runs agg-churn cycles against a
// real bstserve and checks, from the /metrics delta, that at least one
// full batch of mutations completed before every Exact query, so every
// query pays a refresh wave.
func TestAggChurnMutationsPrecedeEveryQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts bstserve")
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "logs"), 0o755); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "bstserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/bstserve").CombinedOutput(); err != nil {
		t.Fatalf("build bstserve: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	a := newAggLoad(7)
	prefill := a.prefillOps()
	for _, op := range prefill {
		a.model.set(int(op.Key), true)
	}
	srv, cl, _, err := startAggServer(ctx, config{bstserve: bin, work: dir, seed: 7}, prefill, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	defer cl.Close()
	for cycle := 0; cycle < 8; cycle++ {
		m0, err := scrape(srv.admin)
		if err != nil {
			t.Fatal(err)
		}
		ops := a.nextBatch()
		res, err := cl.Do(ctx, ops)
		a.apply(ops, res, err)
		m1, err := scrape(srv.admin)
		if err != nil {
			t.Fatal(err)
		}
		// Every op of the batch mutates, so the server's batch-op count is
		// the number of completed mutations.
		if d := delta(m0, m1, "bst_server_batch_ops_total"); d < agBatch {
			t.Fatalf("cycle %d: %v mutations completed before the query, want >= %d", cycle, d, agBatch)
		}
		q := a.nextQuery(cycle)
		got, err := sendQuery(ctx, cl, q)
		a.checkQuery(q, got, err)
	}
	if a.ck.failed != 0 {
		t.Fatalf("%d of %d ops failed; first wrong answer: %s", a.ck.failed, a.ck.attempted, a.ck.firstWrong)
	}
}
