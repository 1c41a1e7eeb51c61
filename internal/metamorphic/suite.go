package metamorphic

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/task"
)

// SuiteOptions configures a full conformance run: the relation ×
// generator × scheduler matrix.
type SuiteOptions struct {
	// Instances is the total instance count across all regimes
	// (default 600). The acceptance bar for a nightly run is ≥ 10000.
	Instances int
	// Seed derives every instance deterministically: instance k uses
	// rand.NewSource(Seed + k), so any reported violation replays exactly.
	Seed int64
	// MaxTasks bounds the drawn instance size (default 12).
	MaxTasks int
	// MaxCores bounds the drawn core count (default 8).
	MaxCores int
	// Regimes restricts the generator zoo (nil = all).
	Regimes []task.Regime
	// Relations restricts the relation library (nil = all).
	Relations []Relation
	// Schedulers restricts the audited schedulers (nil = all registered).
	Schedulers []string
	// Solver tunes the convex solver (the default trades gap sharpness
	// for matrix throughput; all certified slack is accounted for).
	Solver opt.Options
	// RelTol is the comparison tolerance (default 1e-6).
	RelTol float64
	// Minimize shrinks each violating instance to a local minimum before
	// reporting (costly: only the first MinimizeCap violations are
	// minimized, default 8).
	Minimize    bool
	MinimizeCap int
	// Progress, when non-nil, is called after each instance.
	Progress func(done, total int)
}

func (o SuiteOptions) withDefaults() SuiteOptions {
	if o.Instances <= 0 {
		o.Instances = 600
	}
	if o.MaxTasks <= 0 {
		o.MaxTasks = 12
	}
	if o.MaxCores <= 0 {
		o.MaxCores = 8
	}
	if o.Regimes == nil {
		o.Regimes = task.Regimes()
	}
	if o.Relations == nil {
		o.Relations = Relations()
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.Solver.MaxIterations == 0 {
		// ~4× faster than the solver default; the wider duality gap is
		// folded into every optimum-level comparison, so the checks stay
		// sound — just slightly less sharp.
		o.Solver = opt.Options{MaxIterations: 1500, RelGap: 1e-5}
	}
	if o.MinimizeCap <= 0 {
		o.MinimizeCap = 8
	}
	return o
}

// RelationStat aggregates one relation over the run.
type RelationStat struct {
	Name string `json:"name"`
	// Checked counts instances where the relation applied and was
	// evaluated; Skipped counts instances its Applicable gate rejected.
	Checked    int `json:"checked"`
	Skipped    int `json:"skipped"`
	Violations int `json:"violations"`
}

// RatioStat summarizes one scheduler's energy ratio E/E^opt over every
// base instance of the run — the suite's replication of the paper's
// Section VI normalized-energy statistics.
type RatioStat struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P95   float64 `json:"p95"`
}

// Report is the outcome of a conformance run.
type Report struct {
	Instances  int                  `json:"instances"`
	Seed       int64                `json:"seed"`
	Schedulers []string             `json:"schedulers"`
	Regimes    []string             `json:"regimes"`
	Relations  []RelationStat       `json:"relations"`
	Ratios     map[string]RatioStat `json:"ratios"`
	Violations []Violation          `json:"violations"`
	ElapsedSec float64              `json:"elapsed_sec"`
}

// OK reports whether the run found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Summary renders the report compactly.
func (r *Report) Summary() string {
	s := fmt.Sprintf("conform: %d instances, %d regimes, %d relations, %d schedulers, %d violations (%.1fs)",
		r.Instances, len(r.Regimes), len(r.Relations), len(r.Schedulers), len(r.Violations), r.ElapsedSec)
	for _, rs := range r.Relations {
		s += fmt.Sprintf("\n  %-24s checked %6d  skipped %6d  violations %d",
			rs.Name, rs.Checked, rs.Skipped, rs.Violations)
	}
	names := make([]string, 0, len(r.Ratios))
	for name := range r.Ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := r.Ratios[name]
		s += fmt.Sprintf("\n  %-12s E/E^opt mean %.4f  p95 %.4f  max %.4f  (n=%d)",
			name, st.Mean, st.P95, st.Max, st.Count)
	}
	for i, v := range r.Violations {
		if i >= 10 {
			s += fmt.Sprintf("\n  ... %d more violations", len(r.Violations)-10)
			break
		}
		s += "\n  VIOLATION " + v.String()
	}
	return s
}

// drawInstance derives instance k of the run: regime round-robin, sizes
// and model drawn from the per-instance RNG. Models cycle through the
// paper's α sweep with and without static power, biased toward p0 = 0 so
// the zero-leakage scaling laws see half the matrix.
func drawInstance(o SuiteOptions, k int) (Instance, task.Regime, error) {
	regime := o.Regimes[k%len(o.Regimes)]
	rng := rand.New(rand.NewSource(o.Seed + int64(k)))
	n := 1 + rng.Intn(o.MaxTasks)
	ts, err := task.GenerateRegime(rng, regime, n)
	if err != nil {
		return Instance{}, regime, err
	}
	m := 1 + rng.Intn(o.MaxCores)
	alphas := []float64{2, 2.5, 3}
	p0s := []float64{0, 0, 0.05, 0.3}
	inst := Instance{
		Tasks: ts,
		Cores: m,
		Model: power.Unit(alphas[rng.Intn(len(alphas))], p0s[rng.Intn(len(p0s))]),
	}
	return inst, regime, nil
}

// RunSuite executes the full conformance matrix and aggregates the
// outcome. It stops early only on context cancellation or a generator /
// solver failure; violations are collected, not fatal.
func RunSuite(ctx context.Context, o SuiteOptions) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()

	eo := Options{Solver: o.Solver, RelTol: o.RelTol, Schedulers: o.Schedulers}
	relStats := make([]RelationStat, len(o.Relations))
	for i, rel := range o.Relations {
		relStats[i] = RelationStat{Name: rel.Name}
	}
	ratios := make(map[string][]float64)

	rep := &Report{
		Instances:  o.Instances,
		Seed:       o.Seed,
		Schedulers: eo.schedulerNames(),
	}
	for _, r := range o.Regimes {
		rep.Regimes = append(rep.Regimes, string(r))
	}

	for k := 0; k < o.Instances; k++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		inst, regime, err := drawInstance(o, k)
		if err != nil {
			return rep, fmt.Errorf("metamorphic: instance %d (%s): %w", k, regime, err)
		}
		base, vs, applied, err := CheckInstance(ctx, inst, o.Relations, eo)
		if err != nil {
			return rep, fmt.Errorf("metamorphic: instance %d (%s): %w", k, regime, err)
		}
		for name, e := range base.Energy {
			if base.Optimum > 0 {
				ratios[name] = append(ratios[name], e/base.Optimum)
			}
		}
		for i, ok := range applied {
			if ok {
				relStats[i].Checked++
			} else {
				relStats[i].Skipped++
			}
		}
		for _, v := range vs {
			for i, rel := range o.Relations {
				if rel.Name == v.Relation {
					relStats[i].Violations++
				}
			}
			v.Detail = fmt.Sprintf("%s [%s seed %d]", v.Detail, regime, o.Seed+int64(k))
			rep.Violations = append(rep.Violations, v)
		}
		if o.Progress != nil {
			o.Progress(k+1, o.Instances)
		}
	}

	if o.Minimize {
		minimized := 0
		for i := range rep.Violations {
			if minimized >= o.MinimizeCap {
				break
			}
			v := &rep.Violations[i]
			rel, ok := RelationByName(v.Relation)
			if !ok {
				continue
			}
			small := Minimize(ctx, rel, v.Base, eo, 0)
			if len(small.Tasks) < len(v.Base.Tasks) || small.Cores < v.Base.Cores {
				v.Minimized = &small
			}
			minimized++
		}
	}

	rep.Relations = relStats
	rep.Ratios = make(map[string]RatioStat, len(ratios))
	for name, rs := range ratios {
		rep.Ratios[name] = summarize(rs)
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

func summarize(xs []float64) RatioStat {
	if len(xs) == 0 {
		return RatioStat{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	idx := (len(sorted) * 95) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	p95 := sorted[idx]
	return RatioStat{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P95:   p95,
	}
}
