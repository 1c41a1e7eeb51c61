// Package metamorphic is the transformation-based conformance layer of
// the repository. Where the differential oracle (internal/check) certifies
// one schedule on one instance, this package certifies how schedulers
// *respond to change*: each Relation pairs an instance transformation with
// a mathematically provable predicate on how energy must react (exact
// invariance, an exact scaling factor, or a monotonicity direction on the
// convex optimum E^opt). A scheduler that is systematically suboptimal,
// anchored to absolute time, or non-monotone where the theory says it
// must be monotone fails here even though every individual schedule it
// emits is valid.
//
// The engine evaluates every scheduler registered with check.Register on
// a base instance and on the transformed follow-up instance, then checks
// the relation's predicate. Optimum-level relations use the Frank-Wolfe
// solver's duality-gap certificate, so every inequality is checked with
// sound slack: the solver's Energy is a feasible value within Gap of the
// true optimum, and the predicates only ever compare certified bounds.
package metamorphic

import (
	"context"
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/task"
)

// OptName is the pseudo-scheduler name under which the convex optimum
// E^opt appears in outcomes and violations.
const OptName = "E^opt"

// Instance is one scheduling problem: the task set, the core count, and
// the power model.
type Instance struct {
	Tasks task.Set    `json:"tasks"`
	Cores int         `json:"cores"`
	Model power.Model `json:"model"`
}

// Validate checks the instance the same way the solvers would.
func (in Instance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if in.Cores <= 0 {
		return fmt.Errorf("metamorphic: cores %d must be positive", in.Cores)
	}
	return in.Model.Validate()
}

// Clone deep-copies the instance so transforms never alias the base.
func (in Instance) Clone() Instance {
	return Instance{Tasks: in.Tasks.Clone(), Cores: in.Cores, Model: in.Model}
}

func (in Instance) String() string {
	return fmt.Sprintf("n=%d m=%d p(f)=%g·f^%g+%g %v",
		len(in.Tasks), in.Cores, in.Model.Gamma, in.Model.Alpha, in.Model.P0, in.Tasks)
}

// Direction classifies a relation's predicate.
type Direction int

const (
	// Equal: E' = Factor·E exactly (within tolerance / solver gap).
	Equal Direction = iota
	// NonIncreasing: the transformed optimum must not exceed the base
	// optimum (the transform enlarges the feasible region or shrinks the
	// objective pointwise).
	NonIncreasing
	// NonDecreasing: the transformed optimum must not fall below the base
	// optimum.
	NonDecreasing
)

func (d Direction) String() string {
	switch d {
	case Equal:
		return "equal"
	case NonIncreasing:
		return "non-increasing"
	case NonDecreasing:
		return "non-decreasing"
	}
	return fmt.Sprintf("direction(%d)", int(d))
}

// Relation is one metamorphic relation: a transformation of instances
// paired with a provable predicate on the energies.
type Relation struct {
	// Name identifies the relation in reports, e.g. "time-shift".
	Name string
	// Justification states the mathematical reason the predicate must
	// hold, citing the paper's structure. Required: the conform CLI prints
	// it next to every violation.
	Justification string
	// OptimumOnly restricts the predicate to E^opt. Used for monotonicity
	// relations, where heuristics may legitimately exhibit anomalies (a
	// larger feasible region does not help a greedy allocator), but the
	// true optimum provably cannot.
	OptimumOnly bool
	// Applicable gates the relation; nil means every instance qualifies.
	Applicable func(Instance) bool
	// Transform produces the follow-up instance. It must not mutate its
	// argument.
	Transform func(Instance) Instance
	// Factor returns the exact expected energy multiplier for Equal
	// relations: E(follow) = Factor(base)·E(base). Nil means 1.
	Factor func(Instance) float64
	// Direction selects the predicate form.
	Direction Direction
	// Excludes lists schedulers the predicate provably does not bind
	// (e.g. a scheduler with an absolute frequency floor is not
	// scale-covariant). Each exclusion carries its reason in the relation
	// definition's comment.
	Excludes []string
	// RelTol overrides Options.RelTol for this relation (0 = inherit).
	RelTol float64
	// Extra, when non-nil, adds a model-level side condition checked on
	// the instance pair (e.g. critical-frequency monotonicity).
	Extra func(base, follow Instance) error
}

func (r Relation) excluded(name string) bool {
	for _, x := range r.Excludes {
		if x == name {
			return true
		}
	}
	return false
}

// Options tunes the engine.
type Options struct {
	// Solver configures the convex solver behind E^opt. The duality gap it
	// certifies is folded into every optimum-level comparison, so a looser
	// (faster) solver weakens the checks soundly instead of producing
	// false alarms.
	Solver opt.Options
	// RelTol is the relative tolerance of energy comparisons
	// (default 1e-6).
	RelTol float64
	// Schedulers restricts evaluation to the named registry entries
	// (nil = every registered scheduler).
	Schedulers []string
	// SkipOptimum disables the convex solve (scheduler-level relations
	// only); optimum-level relations are then skipped.
	SkipOptimum bool
}

func (o Options) withDefaults() Options {
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	return o
}

// Outcome is the evaluation of one instance: every scheduler's reported
// energy (or error) plus the convex optimum with its gap certificate.
type Outcome struct {
	Energy map[string]float64
	Errs   map[string]error
	// Optimum is the solver's feasible value: within Gap of the true
	// E^opt from above. NaN when the optimum was not solved.
	Optimum float64
	Gap     float64
}

// Violation is one relation breach.
type Violation struct {
	Relation  string `json:"relation"`
	Scheduler string `json:"scheduler"`
	// Base and Follow are the instance pair exhibiting the breach.
	Base   Instance `json:"base"`
	Follow Instance `json:"follow"`
	// BaseEnergy/FollowEnergy are the observed energies; Want is the
	// predicate's expected follow-up value (bound or exact target).
	BaseEnergy   float64 `json:"base_energy"`
	FollowEnergy float64 `json:"follow_energy"`
	Want         float64 `json:"want"`
	Tol          float64 `json:"tol"`
	Detail       string  `json:"detail"`
	// Minimized, when set, is a smaller instance that still violates the
	// relation (see Minimize).
	Minimized *Instance `json:"minimized,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: %s (base %.9g, follow %.9g, want %.9g ± %.2g)",
		v.Relation, v.Scheduler, v.Detail, v.BaseEnergy, v.FollowEnergy, v.Want, v.Tol)
}

// entries resolves the scheduler subset.
func entries(o Options) []check.Entry {
	all := check.Entries()
	if o.Schedulers == nil {
		return all
	}
	keep := all[:0]
	for _, e := range all {
		for _, name := range o.Schedulers {
			if e.Name == name {
				keep = append(keep, e)
				break
			}
		}
	}
	return keep
}

// Eval runs the configured schedulers (and, unless disabled, the convex
// solver) on the instance. Scheduler failures are recorded per scheduler,
// not returned: for a valid instance of the continuous model every
// registered scheduler must succeed, so the caller treats entries in Errs
// as conformance findings. A solver failure is returned as an error since
// nothing can be checked without the optimum.
func Eval(ctx context.Context, inst Instance, o Options) (*Outcome, error) {
	o = o.withDefaults()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	out := &Outcome{
		Energy:  make(map[string]float64),
		Errs:    make(map[string]error),
		Optimum: math.NaN(),
	}
	for _, e := range entries(o) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A panic or an invalid schedule becomes a finding, not a crash
		// and not a scored energy.
		_, energy, err := e.RunVerified(ctx, inst.Tasks, inst.Cores, inst.Model)
		if err != nil {
			out.Errs[e.Name] = err
			continue
		}
		out.Energy[e.Name] = energy
	}
	if !o.SkipOptimum {
		d, err := interval.Decompose(inst.Tasks, 1e-9)
		if err != nil {
			return nil, fmt.Errorf("metamorphic: decompose: %w", err)
		}
		sopts := o.Solver
		if sopts.Context == nil {
			sopts.Context = ctx
		}
		sol, err := opt.Solve(d, inst.Cores, inst.Model, sopts)
		if err != nil {
			return nil, fmt.Errorf("metamorphic: optimum: %w", err)
		}
		out.Optimum = sol.Energy
		out.Gap = sol.Gap
	}
	return out, nil
}

// Apply checks one relation on one instance, reusing the already-computed
// base outcome. It returns the violations found (nil when the relation
// holds or does not apply).
func Apply(ctx context.Context, rel Relation, inst Instance, base *Outcome, o Options) ([]Violation, error) {
	o = o.withDefaults()
	if rel.Applicable != nil && !rel.Applicable(inst) {
		return nil, nil
	}
	if rel.OptimumOnly && (o.SkipOptimum || math.IsNaN(base.Optimum)) {
		return nil, nil
	}
	tol := o.RelTol
	if rel.RelTol > 0 {
		tol = rel.RelTol
	}
	follow := rel.Transform(inst.Clone())
	if err := follow.Validate(); err != nil {
		return nil, fmt.Errorf("metamorphic: relation %s produced an invalid follow-up: %w", rel.Name, err)
	}

	fo := o
	fo.Schedulers = o.schedulerNames()
	if rel.OptimumOnly {
		fo.Schedulers = []string{} // evaluate no schedulers, optimum only
	}
	fout, err := Eval(ctx, follow, fo)
	if err != nil {
		return nil, fmt.Errorf("metamorphic: relation %s follow-up: %w", rel.Name, err)
	}

	var out []Violation
	violate := func(sched string, baseE, followE, want, usedTol float64, format string, args ...any) {
		out = append(out, Violation{
			Relation: rel.Name, Scheduler: sched,
			Base: inst, Follow: follow,
			BaseEnergy: baseE, FollowEnergy: followE, Want: want, Tol: usedTol,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	switch rel.Direction {
	case Equal:
		factor := 1.0
		if rel.Factor != nil {
			factor = rel.Factor(inst)
		}
		if !rel.OptimumOnly {
			for name, baseE := range base.Energy {
				if rel.excluded(name) {
					continue
				}
				followE, ok := fout.Energy[name]
				if !ok {
					if ferr := fout.Errs[name]; ferr != nil {
						violate(name, baseE, math.NaN(), factor*baseE, tol,
							"scheduler succeeded on base but failed on follow-up: %v", ferr)
					}
					continue
				}
				want := factor * baseE
				slack := tol * math.Max(1, math.Abs(want))
				if math.Abs(followE-want) > slack {
					violate(name, baseE, followE, want, slack,
						"energy must scale by exactly %.9g", factor)
				}
			}
		}
		if !o.SkipOptimum && !rel.excluded(OptName) && !math.IsNaN(base.Optimum) {
			// The solver certifies E* ∈ [Energy − Gap, Energy] on each side,
			// so the exact identity E*' = factor·E* can drift by at most
			// Gap' + factor·Gap between the two feasible values.
			want := factor * base.Optimum
			slack := fout.Gap + factor*base.Gap + tol*math.Max(1, math.Abs(want))
			if math.Abs(fout.Optimum-want) > slack {
				violate(OptName, base.Optimum, fout.Optimum, want, slack,
					"optimum must scale by exactly %.9g (gaps %.2g/%.2g)", factor, base.Gap, fout.Gap)
			}
		}
	case NonIncreasing:
		// Soundness: Optimum ≥ E* and Optimum' − Gap' ≤ E*'. The theory
		// gives E*' ≤ E*, so Optimum' − Gap' > Optimum + tol convicts.
		slack := tol * math.Max(1, base.Optimum)
		if fout.Optimum-fout.Gap > base.Optimum+slack {
			violate(OptName, base.Optimum, fout.Optimum, base.Optimum+fout.Gap+slack, slack,
				"optimum must not increase (certified lower bound %.9g above base value %.9g)",
				fout.Optimum-fout.Gap, base.Optimum)
		}
	case NonDecreasing:
		// Mirror image: Optimum' ≥ E*' ≥ E* ≥ Optimum − Gap.
		slack := tol * math.Max(1, base.Optimum)
		if fout.Optimum < base.Optimum-base.Gap-slack {
			violate(OptName, base.Optimum, fout.Optimum, base.Optimum-base.Gap-slack, slack,
				"optimum must not decrease (follow value %.9g below certified base lower bound %.9g)",
				fout.Optimum, base.Optimum-base.Gap)
		}
	}

	if rel.Extra != nil {
		if err := rel.Extra(inst, follow); err != nil {
			violate("model", base.Optimum, fout.Optimum, math.NaN(), 0, "%v", err)
		}
	}
	return out, nil
}

// schedulerNames resolves Options.Schedulers to explicit names so a
// follow-up Eval runs exactly the base's scheduler set.
func (o Options) schedulerNames() []string {
	if o.Schedulers != nil {
		return o.Schedulers
	}
	return check.Names()
}

// CheckInstance evaluates the base instance once and applies every
// relation to it. It returns the base outcome, all violations, and for
// each relation whether it applied to the instance. Scheduler errors on
// the valid base instance are themselves reported as violations of an
// implicit "runs-on-valid-instance" relation, and every successful
// scheduler is checked against the certified optimum lower bound (a
// scheduler beating the optimum convicts its energy accounting).
func CheckInstance(ctx context.Context, inst Instance, rels []Relation, o Options) (*Outcome, []Violation, []bool, error) {
	o = o.withDefaults()
	base, err := Eval(ctx, inst, o)
	if err != nil {
		return nil, nil, nil, err
	}
	var out []Violation
	for name, rerr := range base.Errs {
		out = append(out, Violation{
			Relation: "runs-on-valid-instance", Scheduler: name, Base: inst,
			BaseEnergy: math.NaN(), FollowEnergy: math.NaN(), Want: math.NaN(),
			Detail: fmt.Sprintf("scheduler failed on a valid instance: %v", rerr),
		})
	}
	if !o.SkipOptimum && !math.IsNaN(base.Optimum) {
		// Lower-bound conformance: E ≥ E* ≥ Optimum − Gap for every
		// scheduler (Theorem 1: the convex program lower-bounds every
		// feasible schedule's energy).
		lower := base.Optimum - base.Gap
		for name, e := range base.Energy {
			slack := o.RelTol * math.Max(1, lower)
			if e < lower-slack {
				out = append(out, Violation{
					Relation: "above-optimum", Scheduler: name, Base: inst,
					BaseEnergy: e, FollowEnergy: e, Want: lower, Tol: slack,
					Detail: fmt.Sprintf("energy %.9g below certified optimum lower bound %.9g", e, lower),
				})
			}
		}
	}
	applied := make([]bool, len(rels))
	for i, rel := range rels {
		if err := ctx.Err(); err != nil {
			return base, out, applied, err
		}
		applied[i] = rel.Applicable == nil || rel.Applicable(inst)
		if !applied[i] {
			continue
		}
		vs, err := Apply(ctx, rel, inst, base, o)
		if err != nil {
			return base, out, applied, err
		}
		out = append(out, vs...)
	}
	return base, out, applied, nil
}
