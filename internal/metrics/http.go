package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Source is one named registry for exposition (the name becomes the
// {tree="..."} label / top-level JSON key).
type Source struct {
	Name     string
	Registry *Registry
}

// Handler serves the registries returned by resolve — re-evaluated on every
// request, so callers can rotate registries under a running endpoint (the
// stress tool swaps a fresh registry in each round):
//
//	GET /metrics     Prometheus text exposition format (version 0.0.4)
//	GET /debug/vars  expvar-style JSON of the same snapshots
func Handler(resolve func() []Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, snapshots(resolve()))
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		WriteExpvar(w, snapshots(resolve()))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "bst metrics: /metrics (Prometheus), /debug/vars (expvar JSON)\n")
	})
	return mux
}

// Named is a snapshot paired with its source name.
type Named struct {
	Name string
	Snap Snapshot
}

func snapshots(sources []Source) []Named {
	out := make([]Named, 0, len(sources))
	for _, s := range sources {
		if s.Registry == nil {
			continue
		}
		out = append(out, Named{Name: s.Name, Snap: s.Registry.Snapshot()})
	}
	return out
}

// promCounter maps an internal counter onto its Prometheus family and
// extra labels; several counters share the bst_cas_failures_total family
// distinguished by the step label, mirroring the algorithm's atomic steps.
var promCounter = [NumCounters]struct{ family, labels string }{
	OpsSearch:               {"bst_ops_total", `op="search"`},
	OpsInsert:               {"bst_ops_total", `op="insert"`},
	OpsDelete:               {"bst_ops_total", `op="delete"`},
	SeekRestarts:            {"bst_seek_restarts_total", ""},
	InsertRetries:           {"bst_insert_retries_total", ""},
	InsertCASFailures:       {"bst_cas_failures_total", `step="insert"`},
	DeleteFlagCASFailures:   {"bst_cas_failures_total", `step="flag"`},
	DeleteTagCASFailures:    {"bst_cas_failures_total", `step="tag"`},
	DeleteSpliceCASFailures: {"bst_cas_failures_total", `step="splice"`},
	HelpOther:               {"bst_help_total", ""},
	SpliceWins:              {"bst_splice_wins_total", ""},
	PrunedLeaves:            {"bst_pruned_leaves_total", ""},
	CapacityFailures:        {"bst_capacity_failures_total", ""},
	CapacityRetries:         {"bst_capacity_retries_total", ""},
	BatchOps:                {"bst_batch_ops_total", ""},
	BatchSeekSkippedLevels:  {"bst_batch_seek_skipped_levels_total", ""},
}

type promSample struct {
	labels string // full rendered label set, including tree=
	value  float64
}

type promFamily struct {
	name    string
	typ     string // "counter" | "gauge" | "histogram"
	samples []promSample
}

// WritePrometheus renders all snapshots in Prometheus text exposition
// format. Samples are grouped family-major (all series of one metric name
// together), as the format requires.
func WritePrometheus(w io.Writer, snaps []Named) {
	order := []string{}
	families := map[string]*promFamily{}
	fam := func(name, typ string) *promFamily {
		f, ok := families[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	joinLabels := func(tree, extra string) string {
		l := `tree="` + tree + `"`
		if extra != "" {
			l += "," + extra
		}
		return l
	}

	for _, ns := range snaps {
		s := ns.Snap
		for c := Counter(0); c < NumCounters; c++ {
			pc := promCounter[c]
			f := fam(pc.family, "counter")
			f.samples = append(f.samples, promSample{joinLabels(ns.Name, pc.labels), float64(s.Counters[c])})
		}
		for _, k := range sortedKeys(s.External) {
			// A key may carry its own labels: `name{kind="full"}`.
			name, labels, _ := strings.Cut(k, "{")
			f := fam("bst_"+name, "counter")
			f.samples = append(f.samples, promSample{joinLabels(ns.Name, strings.TrimSuffix(labels, "}")), float64(s.External[k])})
		}
		for _, k := range sortedGaugeKeys(s.Gauges) {
			f := fam("bst_"+k, "gauge")
			f.samples = append(f.samples, promSample{joinLabels(ns.Name, ""), s.Gauges[k]})
		}
		sp := fam("bst_latency_sample_period_ops", "gauge")
		sp.samples = append(sp.samples, promSample{joinLabels(ns.Name, ""), float64(s.SampleEvery)})

		appendHistogram := func(f *promFamily, base string, l LatencySnapshot) {
			var cum uint64
			for i := 0; i < NumBuckets; i++ {
				cum += l.Buckets[i]
				le := strconv.FormatFloat(float64(BucketUpperNanos(i))/1e9, 'g', -1, 64)
				f.samples = append(f.samples, promSample{
					labels: base + `,le="` + le + `"`,
					value:  float64(cum),
				})
			}
			f.samples = append(f.samples,
				promSample{base + `,le="+Inf"`, float64(l.Count)},
				promSample{labels: "\x00sum\x00" + base, value: float64(l.SumNanos) / 1e9},
				promSample{labels: "\x00count\x00" + base, value: float64(l.Count)},
			)
		}
		hf := fam("bst_op_latency_seconds", "histogram")
		for op := Op(0); op < NumOps; op++ {
			appendHistogram(hf, `tree="`+ns.Name+`",op="`+op.Name()+`"`, s.Latency[op])
		}
		for _, k := range sortedLatencyKeys(s.ExternalLatency) {
			appendHistogram(fam("bst_"+k, "histogram"), `tree="`+ns.Name+`"`, s.ExternalLatency[k])
		}
	}

	for _, name := range order {
		f := families[name]
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, sm := range f.samples {
			switch {
			case strings.HasPrefix(sm.labels, "\x00sum\x00"):
				fmt.Fprintf(w, "%s_sum{%s} %s\n", f.name, sm.labels[len("\x00sum\x00"):], formatValue(sm.value))
			case strings.HasPrefix(sm.labels, "\x00count\x00"):
				fmt.Fprintf(w, "%s_count{%s} %s\n", f.name, sm.labels[len("\x00count\x00"):], formatValue(sm.value))
			default:
				suffix := ""
				if f.typ == "histogram" {
					suffix = "_bucket"
				}
				fmt.Fprintf(w, "%s%s{%s} %s\n", f.name, suffix, sm.labels, formatValue(sm.value))
			}
		}
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedLatencyKeys(m map[string]LatencySnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedGaugeKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// expvarLatency is the JSON shape of one op's histogram.
type expvarLatency struct {
	Count    uint64   `json:"count"`
	SumNanos uint64   `json:"sum_ns"`
	P50Nanos uint64   `json:"p50_ns"`
	P99Nanos uint64   `json:"p99_ns"`
	Buckets  []uint64 `json:"buckets_pow2_ns"`
}

// ExpvarMap renders one snapshot as the JSON-friendly map served at
// /debug/vars (also reused by the bench tool's -json output).
func ExpvarMap(s Snapshot) map[string]any {
	lat := map[string]expvarLatency{}
	for op := Op(0); op < NumOps; op++ {
		l := s.Latency[op]
		lat[op.Name()] = expvarLatency{
			Count:    l.Count,
			SumNanos: l.SumNanos,
			P50Nanos: l.Quantile(0.50),
			P99Nanos: l.Quantile(0.99),
			Buckets:  l.Buckets[:],
		}
	}
	for k, l := range s.ExternalLatency {
		lat[k] = expvarLatency{
			Count:    l.Count,
			SumNanos: l.SumNanos,
			P50Nanos: l.Quantile(0.50),
			P99Nanos: l.Quantile(0.99),
			Buckets:  l.Buckets[:],
		}
	}
	return map[string]any{
		"sample_every_ops": s.SampleEvery,
		"counters":         s.CounterMap(),
		"gauges":           s.Gauges,
		"latency":          lat,
	}
}

// WriteExpvar renders all snapshots as one expvar-style JSON document:
// a top-level object keyed by source name.
func WriteExpvar(w io.Writer, snaps []Named) {
	doc := map[string]any{}
	for _, ns := range snaps {
		doc[ns.Name] = ExpvarMap(ns.Snap)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
