package easched

import (
	"context"
	"fmt"

	"repro/internal/check"
	"repro/internal/crosscheck"
)

// --- Universal schedule verification (internal/check) ---

// Violation is one structured scheduling-contract failure found by the
// universal validator.
type Violation = check.Violation

// ViolationKind classifies a Violation.
type ViolationKind = check.Kind

// CrossCheckReport is the outcome of running every registered scheduler
// on one instance and cross-checking the ensemble against the
// independent oracles (simulator, feasibility analyzer, convex optimum
// and its realized schedule, brute force on small instances).
type CrossCheckReport = crosscheck.DiffReport

// Verify re-derives the scheduling contract from the raw schedule alone
// — work conservation per task, window containment, per-instant core
// count ≤ cores, positive frequencies — and independently re-integrates
// energy by sweeping instantaneous power over time. It returns every
// violation found (nil means the schedule is provably consistent with
// the task set under the model).
func Verify(t *Timetable, tasks TaskSet, cores int, m Model) []Violation {
	return check.Validate(t, tasks, cores, m)
}

// CrossCheck runs every scheduler in the library on the instance and
// cross-validates them against each other and the oracles; see
// CrossCheckReport.OK and CrossCheckReport.Summary.
func CrossCheck(tasks TaskSet, cores int, m Model) (*CrossCheckReport, error) {
	return crosscheck.Differential(tasks, cores, m)
}

// Algorithms returns the sorted names of every scheduler registered with
// the universal cross-check (e.g. "S^F2", "YDS", "ReplanDER"). These are
// the algorithm identifiers accepted by RunAlgorithm and by the schedd
// HTTP service.
func Algorithms() []string { return check.Names() }

// RunAlgorithm dispatches to a registered scheduler by name and returns
// the realized schedule together with the energy the scheduler itself
// reports. Unknown names are an error; see Algorithms for the valid set.
// The context is threaded into the solver, which aborts promptly when it
// is canceled. A solver panic is returned as a *PanicError matching
// ErrSolverPanic, and a schedule the universal validator rejects as an
// error matching ErrInvalidSchedule.
func RunAlgorithm(ctx context.Context, name string, tasks TaskSet, cores int, m Model) (*Timetable, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e, ok := check.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("easched: unknown algorithm %q (have %v)", name, check.Names())
	}
	return e.RunVerified(ctx, tasks, cores, m)
}
