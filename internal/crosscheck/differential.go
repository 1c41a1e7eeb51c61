// Package crosscheck is the differential harness: it runs every
// scheduler registered with package check on one instance against the
// independent oracles in-tree (see Differential). It lives apart from
// check so that check imports no oracle and every scheduler package can
// call check.Validate.
package crosscheck

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/check"
	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
)

// DiffOptions tunes Differential.
type DiffOptions struct {
	// Tol is the relative tolerance of every energy comparison
	// (default 1e-6).
	Tol float64
	// Solver configures the convex lower-bound solver.
	Solver opt.Options
	// BruteMaxTasks enables the brute-force optimum cross-check on
	// instances with at most this many tasks (default 6; negative
	// disables, values above opt.BruteMaxTasks are clamped).
	BruteMaxTasks int
	// Only restricts the run to the named schedulers (nil = all).
	Only []string
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.BruteMaxTasks == 0 {
		o.BruteMaxTasks = 6
	}
	if o.BruteMaxTasks > opt.BruteMaxTasks {
		o.BruteMaxTasks = opt.BruteMaxTasks
	}
	return o
}

// DiffResult is one scheduler's outcome on the shared instance.
type DiffResult struct {
	Name string
	// Energy is the energy the scheduler reported.
	Energy float64
	// Recomputed is the validator's independent re-integration.
	Recomputed float64
	// Violations are the contract failures found by check.Audit.
	Violations []check.Violation
	// Err is set when the scheduler failed to produce a schedule at all.
	Err error
}

// DiffReport is the cross-checked outcome of one instance.
type DiffReport struct {
	Results []DiffResult
	// Optimum and Gap are the convex solver's certified bound: every
	// scheduler energy must be at least Optimum − Gap.
	Optimum float64
	Gap     float64
	// Brute is the brute-force optimum (NaN when skipped).
	Brute float64
	// MinSpeed is the minimal feasible uniform speed of the instance.
	MinSpeed float64
	// Problems lists every cross-scheduler disagreement; per-scheduler
	// violations live in Results.
	Problems []string
}

// OK reports whether every scheduler ran, validated cleanly, and agreed
// with every oracle.
func (r *DiffReport) OK() bool {
	if len(r.Problems) > 0 {
		return false
	}
	for _, res := range r.Results {
		if res.Err != nil || len(res.Violations) > 0 {
			return false
		}
	}
	return true
}

// Result returns the named scheduler's outcome, or nil.
func (r *DiffReport) Result(name string) *DiffResult {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Summary renders the report compactly for logs and failure messages.
func (r *DiffReport) Summary() string {
	s := fmt.Sprintf("optimum %.6f (gap %.2g), min speed %.6f", r.Optimum, r.Gap, r.MinSpeed)
	if !math.IsNaN(r.Brute) {
		s += fmt.Sprintf(", brute %.6f", r.Brute)
	}
	for _, res := range r.Results {
		switch {
		case res.Err != nil:
			s += fmt.Sprintf("\n  %-12s ERROR %v", res.Name, res.Err)
		case len(res.Violations) > 0:
			s += fmt.Sprintf("\n  %-12s %.6f INVALID %v", res.Name, res.Energy, res.Violations[0])
		default:
			s += fmt.Sprintf("\n  %-12s %.6f ok", res.Name, res.Energy)
		}
	}
	for _, p := range r.Problems {
		s += "\n  PROBLEM " + p
	}
	return s
}

// Differential runs every registered scheduler on one instance and
// cross-checks the ensemble:
//
//   - each realized schedule passes the full check.Audit, including the
//     independent energy re-integration against the reported energy;
//   - each schedule the audit accepts also runs clean through sim.Run
//     (no shared code, tighter time tolerances) at the reported energy;
//   - each schedule is feasible at its own peak frequency according to
//     the max-flow analyzer (the schedule itself is a witness, so a
//     disagreement convicts one of the two);
//   - every energy is at least the convex solver's certified lower bound
//     Optimum − Gap, and the solver's optimum, realized with
//     opt.Realize, passes the audit and the simulator at that energy;
//   - on instances with at most BruteMaxTasks tasks, the grid-search
//     optimum must agree with the convex solver, and every scheduler
//     must sit inside the brute-force envelope;
//   - on a uniprocessor without static power, YDS and the convex solver
//     must coincide (both are exact there).
//
// Scheduler failures and contract violations are recorded per scheduler;
// cross-scheduler disagreements land in Problems.
func Differential(ts task.Set, m int, pm power.Model) (*DiffReport, error) {
	return DifferentialOpts(ts, m, pm, DiffOptions{})
}

// DifferentialOpts is Differential with explicit options.
func DifferentialOpts(ts task.Set, m int, pm power.Model, o DiffOptions) (*DiffReport, error) {
	entries := check.Entries()
	if o.Only != nil {
		keep := entries[:0]
		for _, e := range entries {
			if slices.Contains(o.Only, e.Name) {
				keep = append(keep, e)
			}
		}
		entries = keep
	}
	return differential(ts, m, pm, o.withDefaults(), entries)
}

// differential cross-checks the given schedulers on one instance.
func differential(ts task.Set, m int, pm power.Model, o DiffOptions, entries []check.Entry) (*DiffReport, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("crosscheck: need at least one core, have %d", m)
	}
	d, err := interval.Decompose(ts, 1e-9)
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{Brute: math.NaN()}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	// audit runs check.Audit against the reported energy and, when it
	// passes, replays the schedule through the simulator, which must
	// execute it cleanly at that energy (1e-5 relative).
	audit := func(name string, sched *schedule.Schedule, energy float64) *check.Result {
		opts := check.DefaultOptions()
		opts.ReportedEnergy = energy
		opts.EnergyTol = math.Max(opts.EnergyTol, o.Tol)
		res := check.Audit(sched, ts, m, pm, opts)
		if len(res.Violations) > 0 {
			return res
		}
		switch r, err := sim.Run(sched, pm); {
		case err != nil:
			problem("%s: sim: %v", name, err)
		case !r.OK():
			problem("%s: sim: %s", name, r.Violations[0])
		case math.Abs(r.Energy-energy) > 1e-5*math.Max(1, energy):
			problem("%s: sim energy %.9g disagrees with reported %.9g", name, r.Energy, energy)
		}
		return res
	}

	sol, err := opt.Solve(d, m, pm, o.Solver)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: optimal solver: %w", err)
	}
	rep.Optimum = sol.Energy
	rep.Gap = sol.Gap
	lower := sol.Energy - sol.Gap
	if optSched, rerr := opt.Realize(d, m, pm, sol); rerr != nil {
		problem("realized optimum: %v", rerr)
	} else if v := audit("realized optimum", optSched, sol.Energy).Violations; len(v) > 0 {
		problem("realized optimum: %v", v[0])
	}

	rep.MinSpeed, _, err = feas.MinSpeed(d, m, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: min speed: %w", err)
	}

	for _, e := range entries {
		res := DiffResult{Name: e.Name}
		// RunSafe: a panicking scheduler becomes one ERROR row instead of
		// taking down the whole audit.
		sched, energy, runErr := e.RunSafe(context.Background(), ts, m, pm)
		if runErr != nil {
			res.Err = runErr
			rep.Results = append(rep.Results, res)
			continue
		}
		res.Energy = energy
		a := audit(e.Name, sched, energy)
		res.Recomputed = a.Energy
		res.Violations = a.Violations
		rep.Results = append(rep.Results, res)
		if len(a.Violations) > 0 {
			continue
		}

		if energy < lower-o.Tol*math.Max(1, lower) {
			problem("%s energy %.9g below certified optimum %.9g − gap %.2g", e.Name, energy, sol.Energy, sol.Gap)
		}
		// The schedule's own peak frequency witnesses feasibility there;
		// the max-flow analyzer must agree.
		var peak float64
		for _, seg := range sched.Segments {
			peak = math.Max(peak, seg.Frequency)
		}
		if peak > 0 {
			ok, _, ferr := feas.Feasible(d, m, peak*(1+1e-6))
			if ferr != nil {
				problem("%s: feasibility analyzer: %v", e.Name, ferr)
			} else if !ok {
				problem("%s: instance declared infeasible at the schedule's own peak %.9g", e.Name, peak)
			}
		}
		if peak < rep.MinSpeed*(1-1e-6) {
			problem("%s: peak frequency %.9g below minimal feasible speed %.9g", e.Name, peak, rep.MinSpeed)
		}
	}

	if o.BruteMaxTasks > 0 && len(ts) <= o.BruteMaxTasks {
		brute, berr := opt.Brute(d, m, pm)
		if berr != nil {
			problem("brute force: %v", berr)
		} else {
			rep.Brute = brute
			// Brute is a feasible point (≥ optimum) accurate to its grid;
			// the solver's value must sit just below it.
			slack := opt.BruteTolerance*brute + sol.Gap
			if sol.Energy > brute+sol.Gap+o.Tol*brute {
				problem("solver optimum %.9g above brute-force feasible value %.9g (gap %.2g)", sol.Energy, brute, sol.Gap)
			}
			if sol.Energy < brute-slack {
				problem("solver optimum %.9g far below brute-force optimum %.9g (grid slack %.2g)", sol.Energy, brute, slack)
			}
			for _, res := range rep.Results {
				if res.Err != nil || len(res.Violations) > 0 {
					continue
				}
				if res.Energy < brute-slack-o.Tol*brute {
					problem("%s energy %.9g below brute-force optimum envelope %.9g", res.Name, res.Energy, brute-slack)
				}
			}
		}
	}

	return rep, nil
}
