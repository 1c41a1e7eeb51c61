package easched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/capped"
	"repro/internal/core"
	"repro/internal/discrete"
	"repro/internal/fault"
	"repro/internal/interval"
	"repro/internal/online"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/yds"
)

// --- Unified context-first solve API ---
//
// Solve is the single front door of the library: one Spec describes the
// instance (tasks, cores, power model), the algorithm, and any add-ons
// (optimal comparison, discrete-table quantization), and one Report
// carries everything produced.

// SolveMethod selects the scheduling algorithm of a Spec. The zero value
// is MethodDER, the paper's recommended configuration.
type SolveMethod string

// Methods accepted by Solve.
const (
	// MethodDER is the DER-based subinterval heuristic (S^I2/S^F2),
	// the paper's recommended configuration. Default.
	MethodDER SolveMethod = "der"
	// MethodEven is the evenly allocating subinterval heuristic
	// (S^I1/S^F1).
	MethodEven SolveMethod = "even"
	// MethodYDS is the classic uniprocessor optimal algorithm; the
	// schedule always occupies a single core regardless of Spec.Cores.
	MethodYDS SolveMethod = "yds"
	// MethodPartitioned is the non-migratory baseline: first-fit
	// decreasing partitioning with per-core YDS.
	MethodPartitioned SolveMethod = "partitioned"
	// MethodOnline is the non-clairvoyant deployment: re-plan the
	// DER pipeline at every release.
	MethodOnline SolveMethod = "online"
	// MethodCapped is the DER pipeline under a frequency ceiling;
	// requires Spec.FrequencyCap > 0.
	MethodCapped SolveMethod = "capped"
)

// Spec describes one solve: the instance, the algorithm, and optional
// add-ons. The zero values of Method and Tolerance select the paper's
// defaults (DER, 1e-9).
type Spec struct {
	// Tasks is the aperiodic workload.
	Tasks TaskSet
	// Cores is the processor core count m.
	Cores int
	// Model is the continuous power model p(f) = γ·f^α + p0.
	Model Model
	// Method selects the algorithm (default MethodDER).
	Method SolveMethod
	// Compare additionally solves the convex program for E^opt and
	// fills Report.Optimal and Report.NEC.
	Compare bool
	// Discrete, when non-nil, quantizes the final schedule onto the
	// table (rounding up) and fills Report.Quantized.
	Discrete *Table
	// FrequencyCap is the frequency ceiling for MethodCapped.
	FrequencyCap float64
	// Tolerance merges subinterval boundaries closer than this
	// (default 1e-9).
	Tolerance float64
}

// Report is the unified output of Solve. Schedule and Energy are always
// set; the remaining fields depend on the method and add-ons requested.
type Report struct {
	// Method that produced the report.
	Method SolveMethod
	// Schedule is the realized, validated schedule.
	Schedule *Timetable
	// Energy is the schedule's energy as accounted by the algorithm
	// itself.
	Energy float64

	// Plan is the full subinterval pipeline output (MethodDER,
	// MethodEven).
	Plan *Plan
	// Capped is the cap-aware result (MethodCapped).
	Capped *CappedPlan
	// Online is the online replanner result (MethodOnline).
	Online *online.Result
	// YDSProfile is the uniprocessor speed profile (MethodYDS).
	YDSProfile *yds.Profile

	// Optimal is the convex-program solution (Spec.Compare).
	Optimal *opt.Solution
	// NEC is Energy normalized by the optimal energy (Spec.Compare):
	// the paper's evaluation metric.
	NEC float64

	// Quantized is the discrete-table assignment (Spec.Discrete).
	Quantized *discrete.Assignment
}

// solverPool recycles core.Solver scratch arenas across Solve calls, so
// a serving loop pays the hot path's steady-state allocation cost (what
// escapes into the Report) rather than rebuilding scratch per request.
var solverPool = sync.Pool{New: func() any { return core.NewSolver() }}

// Solve runs one scheduling instance described by spec under ctx.
//
// Cancellation: the subinterval pipeline (MethodDER, MethodEven) and the
// convex solver (Compare) observe ctx between solver passes and abort
// promptly with an error wrapping ctx.Err(); the remaining methods check
// ctx at phase boundaries.
//
// Robustness: a panic anywhere in the pipeline is recovered and
// returned as a *PanicError matching ErrSolverPanic, and errors are
// classified into the package's taxonomy (ErrInfeasible,
// ErrDeadlineExceeded) for errors.Is dispatch. When a process-wide
// fault injector is enabled (internal/fault, off by default), Solve
// honors the solver_panic, solver_delay, and alloc_error points.
func Solve(ctx context.Context, spec Spec) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if ferr := fault.Active().BeforeSolve(ctx); ferr != nil {
		return nil, ferr
	}
	rep, err = solve(ctx, spec)
	if err != nil {
		return nil, classify(err)
	}
	return rep, nil
}

// solve is the taxonomy- and recovery-free pipeline behind Solve.
func solve(ctx context.Context, spec Spec) (*Report, error) {
	method := spec.Method
	if method == "" {
		method = MethodDER
	}
	tol := spec.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("easched: solve aborted: %w", err)
	}

	rep := &Report{Method: method}
	switch method {
	case MethodDER, MethodEven:
		am := DER
		if method == MethodEven {
			am = Even
		}
		sv := solverPool.Get().(*core.Solver)
		res, err := sv.Schedule(spec.Tasks, spec.Cores, spec.Model, am,
			core.Options{Tolerance: tol, Context: ctx})
		solverPool.Put(sv)
		if err != nil {
			return nil, err
		}
		rep.Plan = res
		rep.Schedule = res.Final
		rep.Energy = res.FinalEnergy
	case MethodYDS:
		sched, prof, err := yds.Schedule(spec.Tasks)
		if err != nil {
			return nil, err
		}
		rep.Schedule = sched
		rep.Energy = sched.Energy(spec.Model)
		rep.YDSProfile = prof
	case MethodPartitioned:
		sched, energy, err := partition.Schedule(spec.Tasks, spec.Cores, spec.Model)
		if err != nil {
			return nil, err
		}
		rep.Schedule = sched
		rep.Energy = energy
	case MethodOnline:
		res, err := online.ReplanDER(spec.Tasks, spec.Cores, spec.Model)
		if err != nil {
			return nil, err
		}
		rep.Online = res
		rep.Schedule = res.Schedule
		rep.Energy = res.Energy
	case MethodCapped:
		if spec.FrequencyCap <= 0 {
			return nil, fmt.Errorf("easched: method %q needs FrequencyCap > 0", method)
		}
		res, err := capped.Schedule(spec.Tasks, spec.Cores, spec.Model, DER, spec.FrequencyCap)
		if err != nil {
			return nil, err
		}
		rep.Capped = res
		rep.Schedule = res.Schedule
		rep.Energy = res.Energy
	default:
		return nil, fmt.Errorf("easched: unknown method %q", method)
	}

	if spec.Compare {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("easched: solve aborted: %w", err)
		}
		d, err := interval.Decompose(spec.Tasks, tol)
		if err != nil {
			return nil, err
		}
		sol, err := opt.Solve(d, spec.Cores, spec.Model, opt.Options{Context: ctx})
		if err != nil {
			return nil, err
		}
		rep.Optimal = sol
		if sol.Energy > 0 {
			rep.NEC = rep.Energy / sol.Energy
		}
	}
	if spec.Discrete != nil {
		a := discrete.QuantizeSchedule(rep.Schedule, spec.Discrete, discrete.RoundUp)
		rep.Quantized = &a
	}
	return rep, nil
}

// BatchResult is one SolveBatch outcome; exactly one of Report and Err
// is non-nil.
type BatchResult struct {
	// Index of the spec within the batch.
	Index int
	// Report is the solve output on success.
	Report *Report
	// Err is the failure (including ctx.Err() for items abandoned on
	// cancellation).
	Err error
}

// SolveBatch solves independent instances concurrently across a worker
// pool and returns the results in spec order. workers ≤ 0 selects
// min(len(specs), GOMAXPROCS). Each worker reuses one solver's scratch
// arenas across its share of the batch, so large batches amortize
// per-solve allocation. A canceled ctx stops dispatch; undone items
// report ctx.Err().
func SolveBatch(ctx context.Context, specs []Spec, workers int) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				rep, err := Solve(ctx, specs[i])
				out[i] = BatchResult{Index: i, Report: rep, Err: err}
			}
		}()
	}
	for i := range specs {
		select {
		case idx <- i:
		case <-ctx.Done():
			out[i] = BatchResult{Index: i, Err: ctx.Err()}
			for j := i + 1; j < len(specs); j++ {
				out[j] = BatchResult{Index: j, Err: ctx.Err()}
			}
			close(idx)
			wg.Wait()
			return out
		}
	}
	close(idx)
	wg.Wait()
	return out
}
