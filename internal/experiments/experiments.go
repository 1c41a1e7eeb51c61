// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI). Each experiment is a registered, parameterized
// sweep: for every x-coordinate it generates replicated random workloads,
// runs the ideal plan, both heuristic pipelines, and the convex optimal
// solver, and reports Normalized Energy Consumption (NEC = energy/E^opt)
// per approach, exactly as the paper plots.
//
// The five series follow the paper's naming: "Idl" is the unlimited-core
// ideal lower-bound schedule S^O; "I1"/"F1" are the intermediate and
// final schedules of the evenly allocating method; "I2"/"F2" those of the
// DER-based allocating method.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/task"
)

// Config controls replication and determinism for every experiment.
type Config struct {
	// Replications per sweep point (the paper uses 100).
	Replications int
	// Seed drives the deterministic RNG streams.
	Seed int64
	// Workers bounds parallel replications; 0 means GOMAXPROCS.
	Workers int
	// Opt tunes the E^opt solver.
	Opt opt.Options
	// Context, when non-nil, cancels a sweep early: no new replications
	// start once it is done, in-flight ones finish, and the experiment
	// returns ctx.Err(). Used by cmd/energysim for SIGINT.
	Context context.Context
}

// Defaults returns the paper's configuration: 100 replications. The
// solver budget targets a duality gap of 1e-5 relative — two orders below
// the confidence intervals of the sweeps.
func Defaults() Config {
	return Config{
		Replications: 100,
		Seed:         20140901,
		Workers:      0,
		Opt:          opt.Options{MaxIterations: 3000, RelGap: 1e-5},
	}
}

// Quick returns a cheap configuration for tests and benches: fewer
// replications, looser solver.
func Quick() Config {
	c := Defaults()
	c.Replications = 10
	c.Opt.MaxIterations = 1500
	return c
}

func (c Config) withDefaults() Config {
	if c.Replications <= 0 {
		c.Replications = Defaults().Replications
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// SeriesNames is the canonical plotting order of the paper's curves.
var SeriesNames = []string{"Idl", "I1", "F1", "I2", "F2"}

// Point is one x-coordinate of a figure.
type Point struct {
	// X is the numeric sweep coordinate; Label its display form.
	X     float64
	Label string
	// Series maps series name → summary of NEC across replications.
	Series map[string]stats.Summary
	// MissRate maps series name → empirical deadline-miss probability
	// (practical-processor experiments only; empty otherwise).
	MissRate map[string]float64
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	// SeriesOrder fixes the column order of Table().
	SeriesOrder []string
	Points      []Point
	// Notes carries per-experiment commentary (e.g. paper-vs-measured).
	Notes []string
}

// Table renders the result as an aligned text table: one row per sweep
// point, one column per series (mean NEC), plus miss-rate columns when
// present.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	hasMiss := false
	for _, p := range r.Points {
		if len(p.MissRate) > 0 {
			hasMiss = true
			break
		}
	}
	missCols := r.missColumns()
	fmt.Fprintf(&b, "%-14s", r.XLabel)
	for _, s := range r.SeriesOrder {
		fmt.Fprintf(&b, " %10s", s)
	}
	if hasMiss {
		for _, s := range missCols {
			fmt.Fprintf(&b, " %12s", "miss("+s+")")
		}
	}
	b.WriteString("\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s", p.Label)
		for _, s := range r.SeriesOrder {
			if sum, ok := p.Series[s]; ok && !math.IsNaN(sum.Mean) {
				fmt.Fprintf(&b, " %10.4f", sum.Mean)
			} else {
				fmt.Fprintf(&b, " %10s", "—")
			}
		}
		if hasMiss {
			for _, s := range missCols {
				if mr, ok := p.MissRate[s]; ok && !math.IsNaN(mr) {
					fmt.Fprintf(&b, " %12.3f", mr)
				} else {
					fmt.Fprintf(&b, " %12s", "—")
				}
			}
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// missColumns returns the ordered miss-rate column keys: the series
// order first, then any extra keys (e.g. "infeasible") alphabetically.
func (r *Result) missColumns() []string {
	cols := make([]string, 0, len(r.SeriesOrder)+1)
	seen := map[string]bool{}
	for _, s := range r.SeriesOrder {
		if hasMissKey(r, s) {
			cols = append(cols, s)
			seen[s] = true
		}
	}
	var extra []string
	for _, p := range r.Points {
		for k := range p.MissRate {
			if !seen[k] {
				seen[k] = true
				extra = append(extra, k)
			}
		}
	}
	sort.Strings(extra)
	return append(cols, extra...)
}

func hasMissKey(r *Result, key string) bool {
	for _, p := range r.Points {
		if _, ok := p.MissRate[key]; ok {
			return true
		}
	}
	return false
}

// NEC holds one replication's normalized energies.
type NEC struct {
	Idl, I1, F1, I2, F2 float64
}

// runInstance evaluates all five approaches on one generated instance and
// normalizes by the convex optimum.
func runInstance(ts task.Set, m int, pm power.Model, optOpts opt.Options) (NEC, error) {
	d, err := interval.Decompose(ts, 1e-9)
	if err != nil {
		return NEC{}, err
	}
	sol, err := opt.Solve(d, m, pm, optOpts)
	if err != nil {
		return NEC{}, err
	}
	if sol.Energy <= 0 {
		return NEC{}, fmt.Errorf("experiments: non-positive E^opt")
	}
	suite, err := core.RunSuite(ts, m, pm, core.Options{Tolerance: 1e-9})
	if err != nil {
		return NEC{}, err
	}
	return NEC{
		Idl: suite.Even.Ideal.TotalEnergy / sol.Energy,
		I1:  suite.Even.IntermediateEnergy / sol.Energy,
		F1:  suite.Even.FinalEnergy / sol.Energy,
		I2:  suite.DER.IntermediateEnergy / sol.Energy,
		F2:  suite.DER.FinalEnergy / sol.Energy,
	}, nil
}

// runReps executes fn(rep) for rep in [0, Replications) on cfg.Workers
// goroutines. When cfg.Context is canceled, no further replications
// start, in-flight ones drain, and the context error is returned — this
// is what lets a Ctrl-C abort a long sweep cleanly instead of running
// the remaining replications to completion.
func runReps(cfg Config, fn func(rep int)) error {
	cfg = cfg.withDefaults()
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for rep := 0; rep < cfg.Replications; rep++ {
		select {
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			fn(rep)
		}(rep)
	}
	wg.Wait()
	return ctx.Err()
}

// sweepPoint runs cfg.Replications instances at one sweep coordinate in
// parallel, with per-replication deterministic RNGs, and aggregates the
// five series. gen produces the workload from a replication RNG; m and pm
// fix the platform.
func sweepPoint(cfg Config, expID, pointIdx int, gen func(rng *rand.Rand) (task.Set, error), m int, pm power.Model) (map[string]stats.Summary, error) {
	cfg = cfg.withDefaults()
	stream := stats.NewStream(cfg.Seed)
	necs := make([]NEC, cfg.Replications)
	errs := make([]error, cfg.Replications)

	if err := runReps(cfg, func(rep int) {
		ts, err := gen(stream.Rand(expID, pointIdx, rep))
		if err != nil {
			errs[rep] = err
			return
		}
		necs[rep], errs[rep] = runInstance(ts, m, pm, cfg.Opt)
	}); err != nil {
		return nil, fmt.Errorf("experiments: point %d: %w", pointIdx, err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: point %d: %w", pointIdx, err)
		}
	}
	var aIdl, aI1, aF1, aI2, aF2 stats.Accumulator
	for _, n := range necs {
		aIdl.Add(n.Idl)
		aI1.Add(n.I1)
		aF1.Add(n.F1)
		aI2.Add(n.I2)
		aF2.Add(n.F2)
	}
	_ = expID
	return map[string]stats.Summary{
		"Idl": aIdl.Summarize(),
		"I1":  aI1.Summarize(),
		"F1":  aF1.Summarize(),
		"I2":  aI2.Summarize(),
		"F2":  aF2.Summarize(),
	}, nil
}
