// Command schedbench runs the repository's fixed solver benchmark
// matrix (algorithms × instance sizes) with testing.Benchmark and writes
// a machine-readable JSON report. A run written to a committed
// BENCH_*.json file (BENCH_pr4.json, ...) becomes a comparable
// performance data point at the repo root, so regressions show up as a
// broken trajectory rather than an anecdote. The default output,
// bench-latest.json, is untracked.
//
// Usage:
//
//	schedbench [-o BENCH.json] [-prev PREV.json] [-quick] [-note TEXT]
//
// The matrix solves the paper-default workload (seed 20140901, unit
// model p(f) = f³ + 0.05):
//
//	der/n=20/m=4     DER subinterval pipeline (S^I2/S^F2), small
//	der/n=100/m=16   ... medium (the acceptance-gate instance)
//	der/n=500/m=16   ... large
//	even/n=100/m=16  evenly allocating pipeline (S^I1/S^F1)
//	opt/n=20/m=4     convex optimum (Frank-Wolfe, 400 iter, 1e-5 gap)
//	opt/n=100/m=16   ...
//	batch/der/n=20x16/m=4  SolveBatch over 16 distinct instances
//
// -quick keeps only the small cases (CI smoke). -prev loads a previous
// report whose results become the baseline block of the new file, with
// per-case speedup (baseline ns / current ns) and alloc ratio (current
// allocs / baseline allocs) comparisons for every case present in both.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/easched"
	"repro/internal/cliflag"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/task"
)

// benchSeed pins the workload so every run and every PR measures the
// same instances.
const benchSeed = 20140901

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Comparison relates one case to the baseline run.
type Comparison struct {
	Name string `json:"name"`
	// Speedup is baseline ns/op divided by current ns/op (> 1 is faster).
	Speedup float64 `json:"speedup"`
	// AllocRatio is current allocs/op divided by baseline allocs/op
	// (< 1 is leaner).
	AllocRatio float64 `json:"alloc_ratio"`
}

// Baseline is the prior run embedded for comparison.
type Baseline struct {
	Source  string   `json:"source"`
	Results []Result `json:"results"`
}

// Report is the schema of BENCH_*.json.
type Report struct {
	Schema     int          `json:"schema"`
	Generated  string       `json:"generated"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Note       string       `json:"note,omitempty"`
	Quick      bool         `json:"quick,omitempty"`
	Results    []Result     `json:"results"`
	Baseline   *Baseline    `json:"baseline,omitempty"`
	Comparison []Comparison `json:"comparison,omitempty"`
}

type benchCase struct {
	name  string
	quick bool // included in -quick runs
	run   func(b *testing.B)
}

func main() {
	fs := cliflag.New("schedbench")
	var (
		out   = fs.String("o", "bench-latest.json", "output JSON path")
		prev  = fs.String("prev", "", "previous report whose results become the baseline block")
		quick = fs.Bool("quick", false, "run only the small cases (CI smoke)")
		note  = fs.String("note", "", "free-form annotation stored in the report")
	)
	fs.Parse(os.Args[1:])

	cases := matrix()
	rep := Report{
		Schema:    1,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Note:      *note,
		Quick:     *quick,
	}
	for _, c := range cases {
		if *quick && !c.quick {
			continue
		}
		fmt.Fprintf(os.Stderr, "schedbench: %-24s", c.name)
		r := testing.Benchmark(c.run)
		res := Result{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, " %12.0f ns/op %10d B/op %8d allocs/op\n",
			res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		rep.Results = append(rep.Results, res)
	}

	if *prev != "" {
		base, err := loadBaseline(*prev)
		if err != nil {
			fatalf("%v", err)
		}
		rep.Baseline = base
		rep.Comparison = compare(base.Results, rep.Results)
		for _, c := range rep.Comparison {
			fmt.Fprintf(os.Stderr, "schedbench: %-24s %6.2fx faster, %.3fx allocs vs baseline\n",
				c.Name, c.Speedup, c.AllocRatio)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatalf("encode: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "schedbench: wrote %s (%d cases)\n", *out, len(rep.Results))
}

// matrix is the fixed benchmark matrix. Case names are stable across
// PRs — comparisons match on them.
func matrix() []benchCase {
	return []benchCase{
		{name: "der/n=20/m=4", quick: true, run: solveCase(easched.MethodDER, 20, 4)},
		{name: "der/n=100/m=16", quick: false, run: solveCase(easched.MethodDER, 100, 16)},
		{name: "der/n=500/m=16", quick: false, run: solveCase(easched.MethodDER, 500, 16)},
		{name: "even/n=100/m=16", quick: false, run: solveCase(easched.MethodEven, 100, 16)},
		{name: "opt/n=20/m=4", quick: true, run: optCase(20, 4)},
		{name: "opt/n=100/m=16", quick: false, run: optCase(100, 16)},
		{name: "batch/der/n=20x16/m=4", quick: true, run: batchCase(20, 16, 4)},
	}
}

func workload(n int) (task.Set, power.Model) {
	rng := rand.New(rand.NewSource(benchSeed))
	ts, err := task.Generate(rng, task.PaperDefaults(n))
	if err != nil {
		fatalf("generate n=%d: %v", n, err)
	}
	return ts, power.Unit(3, 0.05)
}

// solveCase benchmarks the full validated pipeline through the unified
// Solve front door.
func solveCase(method easched.SolveMethod, n, m int) func(b *testing.B) {
	return func(b *testing.B) {
		ts, pm := workload(n)
		spec := easched.Spec{Tasks: ts, Cores: m, Model: pm, Method: method}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := easched.Solve(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// optCase benchmarks the convex solver with the same budget the
// pre-PR baseline used (400 iterations, 1e-5 relative gap).
func optCase(n, m int) func(b *testing.B) {
	return func(b *testing.B) {
		ts, pm := workload(n)
		d, err := interval.Decompose(ts, 1e-9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Solve(d, m, pm, opt.Options{MaxIterations: 400, RelGap: 1e-5}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// batchCase benchmarks SolveBatch over `count` distinct instances of n
// tasks each; one op is the whole batch.
func batchCase(n, count, m int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(benchSeed))
		pm := power.Unit(3, 0.05)
		specs := make([]easched.Spec, count)
		for i := range specs {
			ts, err := task.Generate(rng, task.PaperDefaults(n))
			if err != nil {
				b.Fatal(err)
			}
			specs[i] = easched.Spec{Tasks: ts, Cores: m, Model: pm}
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range easched.SolveBatch(ctx, specs, 0) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}
}

// loadBaseline reads a previous report (or a bare Baseline block) and
// returns it as the baseline of the current run.
func loadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev Report
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(prev.Results) == 0 {
		return nil, fmt.Errorf("%s: no results to use as baseline", path)
	}
	src := path
	if prev.Note != "" {
		src = prev.Note
	} else if prev.Generated != "" {
		src = fmt.Sprintf("%s (generated %s)", path, prev.Generated)
	}
	return &Baseline{Source: src, Results: prev.Results}, nil
}

// compare matches cases by name and computes speedup and alloc ratio.
func compare(base, cur []Result) []Comparison {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var out []Comparison
	for _, r := range cur {
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		c := Comparison{Name: r.Name, Speedup: b.NsPerOp / r.NsPerOp}
		if b.AllocsPerOp > 0 {
			c.AllocRatio = float64(r.AllocsPerOp) / float64(b.AllocsPerOp)
		}
		out = append(out, c)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedbench: "+format+"\n", args...)
	os.Exit(1)
}
