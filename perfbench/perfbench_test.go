package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.9, 900, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestPerOpDeltas(t *testing.T) {
	before := usage{cpu: time.Second, alloc: 1 << 20}
	after := usage{cpu: 3 * time.Second, alloc: 1<<20 + 40*1024}
	cpu, alloc := perOp(before, after, 10)
	if cpu != 200 || alloc != 4 {
		t.Errorf("perOp = %g ms, %g KiB; want 200 ms, 4 KiB", cpu, alloc)
	}
	if cpu, alloc := perOp(before, after, 0); cpu != 0 || alloc != 0 {
		t.Errorf("perOp with no operations = %g, %g; want 0, 0", cpu, alloc)
	}
	u0 := readUsage()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<16))
	}
	u1 := readUsage()
	if _, alloc := perOp(u0, u1, 1); alloc < 64*64 || len(sink) != 64 {
		t.Errorf("4 MiB allocated between readings, perOp reports %g KiB", alloc)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# TYPE schedrouter_backend_up gauge
schedd_cache_hits_total 12
schedd_cache_hit_rate 0.75

schedd_responses_total{code="200"} 40
schedd_latency_ms_bucket{le="+Inf"} 3
`
	c, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := counters{
		"schedd_cache_hits_total":             12,
		"schedd_cache_hit_rate":               0.75,
		`schedd_responses_total{code="200"}`:  40,
		`schedd_latency_ms_bucket{le="+Inf"}`: 3,
	}
	if len(c) != len(want) {
		t.Fatalf("parsed %v, want %v", c, want)
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %g, want %g", k, c[k], v)
		}
	}
	for _, bad := range []string{"lonely_name\n", "name notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
	d := sumDelta([]counters{{"a": 1}, {"a": 2}}, []counters{{"a": 4}, {"a": 3}})
	if d["a"] != 4 {
		t.Errorf("sumDelta = %g, want 4", d["a"])
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the program prints
// and the ones BENCHMARK.json declares in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}

// TestTinyRuns runs every workload briefly, untraced and traced, and
// requires zero failures, a correct result, and the metric premises the
// workloads are built on.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stack")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, window: 300 * time.Millisecond, workdir: t.TempDir()}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, endToEnd)
			for _, name := range []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "cpu_ms_per_op", "alloc_kb_per_op", "energy_ratio"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, res.Metrics[name].Value)
				}
			}

			res, err = w.trace(cfg, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, perLayer)
			m := func(name string) float64 { return res.Metrics[name].Value }
			switch w.name {
			case "solve-cold":
				if m("server.cache_hit_ratio") != 0 {
					t.Errorf("cache hit ratio %g on solve-cold, want 0", m("server.cache_hit_ratio"))
				}
				for _, l := range oneShotLayers {
					if l != "check.validate_ms" && m(l) >= m("check.validate_ms") {
						t.Errorf("%s = %g ms is not below check.validate_ms = %g ms", l, m(l), m("check.validate_ms"))
					}
				}
			case "solve-hot-routed":
				if m("server.cache_hit_ratio") != 1 {
					t.Errorf("cache hit ratio %g on solve-hot-routed, want 1", m("server.cache_hit_ratio"))
				}
				if m("check.validate_ms") != 0 || m("wire.encode_ms") <= 0 {
					t.Errorf("hot path: check.validate_ms = %g, wire.encode_ms = %g", m("check.validate_ms"), m("wire.encode_ms"))
				}
			case "session-journaled":
				for _, name := range []string{"dispatch.arrive_ms", "online.replan_ms", "journal.append_ms", "journal.records_per_op", "dispatch.finish_ms"} {
					if m(name) <= 0 {
						t.Errorf("%s = %g, want > 0", name, m(name))
					}
				}
			}
		})
	}
}

func checkRun(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
		t.Fatalf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.problems)
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if res.Metrics[d.name].Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q", d.name, res.Metrics[d.name].Unit)
		}
	}
}
