// Command perfbench is the serving-stack benchmark. It starts schedd
// (server.New(...).Handler()) and, where a workload routes, the router
// (cluster.New) inside its own process on loopback listeners, drives one
// named workload from a single client with at most as many connections
// as cores, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer breakdown instead, from a separate traced pass
// that sends each operation once through the stack and then once through
// the layer calls on the same input (see trace.go).
//
// Every workload is a closed loop: a client sends its next request only
// when the previous one was answered, and session arrival times are
// virtual, so the next batch is posted only when the previous one was
// planned. The workload seed is a flag; the program only ever sees the
// inputs generated from it. Steadiness rules shared by all workloads:
// no wall-clock timers in timed paths, set-up made of program work (never
// sleeps or polls), latency percentiles pooled over every operation of
// the run (never per session), and no more connections than cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees, the same on every
// workload. An operation is a one-shot request, or a session arrival
// batch measured from its POST to its replan event.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // median time to bring the stack to ready, warm-up included
	{"throughput_ops_s", "1/s"}, // operations completed per second of the timed window
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},    // process user+sys CPU per operation
	{"alloc_kb_per_op", "KiB"}, // heap bytes allocated per operation
	{"energy_ratio", "ratio"},  // served energy over the S^O lower bound of the same instance
}

// perLayer are the traced run's metrics: medians over operations of the
// time spent in (or work done by) each layer. Layers a workload does not
// reach read 0.
var perLayer = []metricDef{
	{"wire.decode_ms", "ms"},
	{"interval.decompose_ms", "ms"},
	{"ideal.build_ms", "ms"},
	{"alloc.build_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.segments", "count"},
	{"schedule.validate_ms", "ms"},
	{"check.validate_ms", "ms"},
	{"check.slices", "count"},
	{"sim.run_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.response_kb", "KiB"},
	{"server.self_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"cluster.hop_ms", "ms"},
	{"cluster.retries", "count"},
	{"dispatch.arrive_ms", "ms"},
	{"dispatch.self_ms", "ms"},
	{"dispatch.residual_tasks", "count"},
	{"dispatch.arrived_tasks", "count"},
	{"dispatch.finish_ms", "ms"},
	{"online.replan_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"journal.records_per_op", "count"},
	{"journal.kb_per_op", "KiB"},
	{"trace.stack_ms", "ms"},
	{"trace.coverage", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration
	workdir string
}

// workload is one named traffic mix: run measures the end-to-end
// metrics, trace the per-layer ones.
type workload struct {
	name  string
	run   func(runConfig) (*result, error)
	trace func(runConfig, *tracer) (*result, error)
}

var workloads = []workload{
	{"solve-cold", runCold, traceCold},
	{"solve-hot-routed", runHot, traceHot},
	{"session-journaled", runSession, traceSession},
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the JSON result line plus the sample
// count and the first problems found, printed above it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs     []metricDef
	samples  int
	tooFew   bool // the p90 rests on fewer than minTail samples beyond it
	problems []string
}

func newResult(defs []metricDef) *result {
	r := &result{Correct: true, Metrics: make(map[string]metricValue, len(defs)), defs: defs}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set stores a metric declared in the result's catalog.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalog")
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// problem records a correctness problem that is not an operation of its
// own (a broken premise, a stream contract violation); it makes the run
// incorrect.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solve-cold, solve-hot-routed or session-journaled")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traced := fs.Int("trace", 0, "1 reports the per-layer breakdown from a traced run instead of the end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (solve-cold, solve-hot-routed, session-journaled), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), workdir: *workdir}

	var (
		res *result
		err error
	)
	if *traced == 1 {
		tr := newTracer()
		res, err = w.trace(cfg, tr)
		if err == nil {
			path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
			if werr := tr.write(path); werr != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", werr)
			}
		}
	} else {
		res, err = w.run(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	if res.tooFew {
		res.problem("%d latency samples leave fewer than %d beyond the p90; lengthen --seconds", res.samples, minTail)
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: %d operations attempted, %d failed, %d latency samples, GOMAXPROCS %d\n",
		w.name, *seed, *traced, res.Attempted, res.Failed, res.samples, runtime.GOMAXPROCS(0))
	for _, d := range res.defs {
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}
