// Package core implements the paper's primary contribution: the
// lightweight subinterval-based energy-aware schedulers for aperiodic
// tasks on multi-core DVFS processors (Section V).
//
// For a task set, a core count m, and a power model, the package builds:
//
//   - the intermediate schedule S^I (Section V.B.1 / V.C.1): every task
//     keeps its ideal-case frequency wherever its per-subinterval
//     available-time allocation accommodates the ideal execution, and
//     raises the frequency just enough to fit where it does not;
//   - the final schedule S^F (Section V.B.2 / V.C.2): every task's single
//     frequency is re-optimized against its total available time A_i,
//     f_i = max( (p0/(γ(α−1)))^(1/α), C_i/A_i ).
//
// Both come in two flavors selected by the allocation method: the evenly
// allocating method (S^I1/S^F1) and the DER-based allocating method
// (S^I2/S^F2). Concrete collision-free schedules are realized with
// Algorithm 1 (package pack) and validated against the feasibility
// constraints of Section III.C.
//
// The hot path is allocation-lean: a Solver holds scratch arenas (slot
// buffers, pack requests and pieces, per-task frequency tables) that are
// reused across calls, so a serving loop allocates only what escapes into
// the returned Result. A caller that keeps only one schedule's segments
// (Solver.AppendFinal, Solver.AppendIntermediate) has the stages built
// in the Solver's arenas too and allocates nothing per solve.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/freelist"
	"repro/internal/ideal"
	"repro/internal/interval"
	"repro/internal/numeric"
	"repro/internal/pack"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Result bundles everything produced for one (task set, m, model, method)
// instance.
type Result struct {
	Tasks  task.Set
	Cores  int
	Model  power.Model
	Method alloc.Method

	// Decomp is the subinterval decomposition.
	Decomp *interval.Decomposition
	// Ideal is the unlimited-core plan S^O.
	Ideal *ideal.Plan
	// Alloc is the available-execution-time allocation.
	Alloc *alloc.Allocation

	// Intermediate is the realized S^I schedule and its energy E^I.
	Intermediate       *schedule.Schedule
	IntermediateEnergy float64

	// Final is the realized S^F schedule and its energy E^F.
	Final       *schedule.Schedule
	FinalEnergy float64
	// FinalFrequencies[i] is the single frequency of task i in S^F.
	FinalFrequencies []float64
	// AvailableTime[i] is A_i, the task's total available execution time.
	AvailableTime []float64
}

// Options configures Schedule.
type Options struct {
	// Tolerance merges subinterval boundaries closer than this; zero keeps
	// exact distinctness. Float-generated workloads should pass a small
	// epsilon.
	Tolerance float64
	// SkipValidation disables the internal feasibility check of the
	// realized schedules, for callers that validate the schedule they
	// take themselves (the registry runners, online and capped, and
	// perfbench's trace replay).
	SkipValidation bool
	// Context, when non-nil, is checked between subinterval passes so a
	// canceled request aborts the solve instead of running to completion.
	Context context.Context
}

// ctxCheckStride bounds how many subintervals are processed between
// ctx.Err() polls; small enough that cancellation is detected within a
// fraction of a millisecond even on n=500 instances.
const ctxCheckStride = 32

// Solver runs the Section V pipeline while reusing scratch buffers across
// calls. The zero value is ready to use; a Solver must not be used from
// multiple goroutines at once. A caller that solves from many goroutines
// takes its Solvers from a pool (GetSolver, or a pool of its own, as
// internal/online's replanner has): nothing a call returns aliases the
// Solver, so it can go back to the pool as soon as the call returns, but
// not after a panic inside it.
type Solver struct {
	allocB alloc.Builder

	reqs    []pack.Request
	pieces  []pack.Piece
	freqOf  []float64
	useTime []float64

	// scratch is the Result AppendFinal and AppendIntermediate build on:
	// its stages and tables are rebuilt in place by every call, as none
	// of them leaves it.
	scratch Result
	out     schedule.Schedule
}

// solvers holds the idle Solvers of one-shot solves, the registry
// runners' and easched.Solve's, so that a serving loop does not build
// scratch arenas for every request. Collections do not empty it, so a
// solve that follows one finds its arenas grown.
var solvers = freelist.New[Solver]()

// GetSolver returns an idle Solver of the package's, or a new one, for
// calls from one goroutine until PutSolver gives it back.
func GetSolver() *Solver {
	if sv := solvers.Get(); sv != nil {
		return sv
	}
	return new(Solver)
}

// PutSolver gives sv back to the package's idle Solvers once its last
// call has returned. A Solver whose call panicked must not go back: its
// scratch may be half built.
func PutSolver(sv *Solver) { solvers.Put(sv) }

// NewSolver returns an empty Solver. Identical to new(Solver); exists for
// call-site clarity.
func NewSolver() *Solver { return &Solver{} }

// Schedule runs the full pipeline of Section V for one allocation method.
func Schedule(ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) (*Result, error) {
	var sv Solver
	return sv.Schedule(ts, m, pm, method, opts)
}

// Schedule runs the full pipeline of Section V for one allocation method,
// reusing the solver's scratch arenas. It builds both S^I and S^F; a
// caller that takes only one of them should call Final,
// AppendIntermediate or AppendFinal.
func (sv *Solver) Schedule(ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) (*Result, error) {
	return sv.solve(ts, m, pm, method, opts, (*Solver).intermediate, (*Solver).final)
}

// Final runs the pipeline up to S^F only: S^F needs the allocation
// totals A_i, not S^I's packed segments, so the returned Result has no
// Intermediate.
func (sv *Solver) Final(ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) (*Result, error) {
	return sv.solve(ts, m, pm, method, opts, (*Solver).final)
}

// AppendFinal runs the pipeline up to S^F, as Final does, appends
// S^F's segments to dst and returns them with E^F. Nothing else of the
// solve leaves the Solver: the decomposition, ideal plan, allocation and
// frequency tables are built in the Solver's own scratch and overwritten
// by its next append, so a caller that keeps only the schedule
// (internal/online's replanner, the registry runners) solves instance
// after instance without allocating them again. The Solver keeps no
// reference to dst or ts once it returns.
func (sv *Solver) AppendFinal(dst []schedule.Segment, ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) ([]schedule.Segment, float64, error) {
	return sv.appendSchedule(dst, ts, m, pm, method, opts, true)
}

// AppendIntermediate is AppendFinal for S^I: it appends S^I's segments
// to dst and returns them with E^I.
func (sv *Solver) AppendIntermediate(dst []schedule.Segment, ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) ([]schedule.Segment, float64, error) {
	return sv.appendSchedule(dst, ts, m, pm, method, opts, false)
}

// appendSchedule builds S^F (final) or S^I in the Solver's scratch
// Result, with dst as the schedule's segment buffer.
func (sv *Solver) appendSchedule(dst []schedule.Segment, ts task.Set, m int, pm power.Model, method alloc.Method, opts Options, final bool) ([]schedule.Segment, float64, error) {
	r := &sv.scratch
	if r.Decomp == nil {
		r.Decomp, r.Ideal, r.Alloc = new(interval.Decomposition), new(ideal.Plan), new(alloc.Allocation)
	}
	sv.out.Segments = dst
	build, energy := (*Solver).intermediate, &r.IntermediateEnergy
	r.Intermediate = &sv.out
	if final {
		build, energy = (*Solver).final, &r.FinalEnergy
		r.Intermediate, r.Final = nil, &sv.out
	}
	err := sv.prepare(r, ts, m, pm, method, opts)
	if err == nil {
		err = build(sv, r, opts)
	}
	var e float64
	if err == nil {
		dst, e = sv.out.Segments, *energy
	}
	sv.out = schedule.Schedule{}
	r.Tasks, r.Decomp.Tasks, r.Intermediate, r.Final = nil, nil, nil, nil
	return dst, e, err
}

// solve runs the stages every schedule shares, then builds, in order,
// the schedules asked for.
func (sv *Solver) solve(ts task.Set, m int, pm power.Model, method alloc.Method, opts Options,
	builds ...func(*Solver, *Result, Options) error) (*Result, error) {
	res := &Result{Decomp: new(interval.Decomposition), Ideal: new(ideal.Plan), Alloc: new(alloc.Allocation)}
	if err := sv.prepare(res, ts, m, pm, method, opts); err != nil {
		return nil, err
	}
	for _, build := range builds {
		if err := build(sv, res, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prepare runs the stages every schedule shares, the subinterval
// decomposition, the ideal plan S^O and the time allocation, into res's
// Decomp, Ideal and Alloc.
func (sv *Solver) prepare(res *Result, ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) error {
	if m <= 0 {
		return fmt.Errorf("core: need at least one core, have %d", m)
	}
	if err := pm.Validate(); err != nil {
		return err
	}
	if err := interval.DecomposeInto(res.Decomp, ts, opts.Tolerance); err != nil {
		return err
	}
	if err := ideal.BuildInto(res.Ideal, ts, pm); err != nil {
		return err
	}
	if err := aborted(opts.Context); err != nil {
		return err
	}
	if err := sv.allocB.BuildInto(res.Alloc, res.Decomp, m, method, res.Ideal); err != nil {
		return err
	}
	res.Tasks, res.Cores, res.Model, res.Method = ts, m, pm, method
	return nil
}

// intermediate builds S^I into res and, unless opts skips it, checks it.
func (sv *Solver) intermediate(res *Result, opts Options) error {
	if err := sv.buildIntermediate(opts.Context, res); err != nil {
		return fmt.Errorf("core: intermediate schedule: %w", err)
	}
	return verify("intermediate", res.Intermediate, res, opts)
}

// final builds S^F into res and, unless opts skips it, checks it.
func (sv *Solver) final(res *Result, opts Options) error {
	if err := sv.buildFinal(opts.Context, res); err != nil {
		return fmt.Errorf("core: final schedule: %w", err)
	}
	return verify("final", res.Final, res, opts)
}

// verify checks a realized schedule of res with the universal validator
// unless opts skips it.
func verify(name string, s *schedule.Schedule, res *Result, opts Options) error {
	if opts.SkipValidation {
		return nil
	}
	if err := aborted(opts.Context); err != nil {
		return err
	}
	if v := check.Validate(s, res.Tasks, res.Cores, res.Model); len(v) > 0 {
		return fmt.Errorf("core: %s schedule infeasible: %v", name, v[0])
	}
	return nil
}

// aborted reports a canceled or expired ctx (nil ctx never aborts).
func aborted(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("core: solve aborted: %w", ctx.Err())
	}
	return nil
}

// MustSchedule is Schedule but panics on error.
func MustSchedule(ts task.Set, m int, pm power.Model, method alloc.Method, opts Options) *Result {
	r, err := Schedule(ts, m, pm, method, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// grow readies the per-task scratch for d's tasks and bounds the segment
// count of one schedule realized on m cores. Each builder calls it
// before touching that scratch, so either one can run first on a fresh
// Solver.
func (sv *Solver) grow(d *interval.Decomposition, m int) int {
	n := len(d.Tasks)
	if cap(sv.freqOf) < n {
		sv.freqOf = make([]float64, n)
		sv.useTime = make([]float64, n)
	}
	// Algorithm 1 packs k requests onto at most min(k, m) cores and
	// splits a task only where it wraps from one core to the next, so a
	// subinterval yields at most k + min(k, m) − 1 pieces.
	segs := 0
	for j := range d.Subs {
		if k := d.Subs[j].Count(); k > 0 {
			segs += k + min(k, m) - 1
		}
	}
	return segs
}

// buildIntermediate realizes S^I: in every subinterval each overlapping
// task executes min(ideal time, grant); if the grant is tighter than the
// ideal execution the frequency is raised to complete the same work
// (Sections V.B.1 and V.C.1).
func (sv *Solver) buildIntermediate(ctx context.Context, r *Result) error {
	segs := sv.grow(r.Decomp, r.Cores)
	freqOf := sv.freqOf[:len(r.Tasks)]
	// A Result that arrives with an Intermediate builds into it
	// (AppendIntermediate).
	sched := r.Intermediate
	if sched == nil {
		sched = schedule.New(r.Tasks, r.Cores)
	}
	sched.Tasks, sched.Cores = r.Tasks, r.Cores
	sched.Grow(segs)
	var energy numeric.KahanSum
	for j := range r.Decomp.Subs {
		if ctx != nil && j%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		sub := &r.Decomp.Subs[j]
		sv.reqs = sv.reqs[:0]
		for _, id := range sub.Overlapping {
			idealTime := r.Ideal.ExecWithin(id, sub.Start, sub.End)
			if idealTime <= 0 {
				continue
			}
			grant := r.Alloc.Grant(id, j)
			f := r.Ideal.Tasks[id].Frequency
			t := idealTime
			if idealTime > grant {
				// Raise the frequency to fit the granted time while
				// completing the same work idealTime·f^O.
				if grant <= 0 {
					return fmt.Errorf("task %d needs time in subinterval %d but was granted none", id, j)
				}
				f = idealTime * f / grant
				t = grant
			}
			sv.reqs = append(sv.reqs, pack.Request{Task: id, Time: t})
			freqOf[id] = f
			energy.Add(r.Model.EnergyForTime(t, f))
		}
		pieces, err := pack.AppendInterval(sv.pieces[:0], sub.Start, sub.End, r.Cores, sv.reqs)
		if err != nil {
			return fmt.Errorf("subinterval %d: %w", j, err)
		}
		sv.pieces = pieces[:0]
		for _, p := range pieces {
			sched.Add(schedule.Segment{
				Task: p.Task, Core: p.Core,
				Start: p.Start, End: p.End,
				Frequency: freqOf[p.Task],
			})
		}
	}
	r.Intermediate = sched
	r.IntermediateEnergy = energy.Value()
	return nil
}

// buildFinal realizes S^F: task i runs at the single frequency
// f_i = max(f*, C_i/A_i), using C_i/f_i ≤ A_i total time, distributed
// over subintervals proportionally to the grants (which preserves both
// per-subinterval caps, so Algorithm 1 applies).
func (sv *Solver) buildFinal(ctx context.Context, r *Result) error {
	n := len(r.Tasks)
	segs := sv.grow(r.Decomp, r.Cores)
	r.FinalFrequencies = slices.Grow(r.FinalFrequencies[:0], n)[:n]
	r.AvailableTime = slices.Grow(r.AvailableTime[:0], n)[:n]
	useTime := sv.useTime[:n]
	fstar := r.Model.CriticalFrequency()
	var energy numeric.KahanSum
	for i := range r.Tasks {
		tk := &r.Tasks[i]
		a := r.Alloc.Total[i]
		if a <= 0 {
			return fmt.Errorf("task %d has no available execution time", i)
		}
		f := r.Model.BestFrequencyAt(fstar, tk.Work, a)
		r.FinalFrequencies[i] = f
		r.AvailableTime[i] = a
		useTime[i] = tk.Work / f
		energy.Add(r.Model.Energy(tk.Work, f))
	}
	// A Result that arrives with a Final builds into it (AppendFinal).
	sched := r.Final
	if sched == nil {
		sched = schedule.New(r.Tasks, r.Cores)
	}
	sched.Tasks, sched.Cores = r.Tasks, r.Cores
	sched.Grow(segs)
	for j := range r.Decomp.Subs {
		if ctx != nil && j%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		sub := &r.Decomp.Subs[j]
		sv.reqs = sv.reqs[:0]
		for _, id := range sub.Overlapping {
			grant := r.Alloc.Grant(id, j)
			if grant <= 0 {
				continue
			}
			t := useTime[id] * grant / r.Alloc.Total[id]
			if t <= 0 {
				continue
			}
			sv.reqs = append(sv.reqs, pack.Request{Task: id, Time: t})
		}
		pieces, err := pack.AppendInterval(sv.pieces[:0], sub.Start, sub.End, r.Cores, sv.reqs)
		if err != nil {
			return fmt.Errorf("subinterval %d: %w", j, err)
		}
		sv.pieces = pieces[:0]
		for _, p := range pieces {
			sched.Add(schedule.Segment{
				Task: p.Task, Core: p.Core,
				Start: p.Start, End: p.End,
				Frequency: r.FinalFrequencies[p.Task],
			})
		}
	}
	r.Final = sched
	r.FinalEnergy = energy.Value()
	return nil
}
