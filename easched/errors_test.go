package easched_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/easched"
	"repro/internal/fault"
)

// sectionVDSpec builds the paper's Section V.D example as a Solve spec.
func sectionVDSpec(t *testing.T) easched.Spec {
	t.Helper()
	ts, err := easched.NewTasks(
		[3]float64{0, 8, 10}, [3]float64{2, 14, 18}, [3]float64{4, 8, 16},
		[3]float64{6, 4, 14}, [3]float64{8, 10, 20}, [3]float64{12, 6, 22},
	)
	if err != nil {
		t.Fatal(err)
	}
	return easched.Spec{Tasks: ts, Cores: 4, Model: easched.Model{Gamma: 1, Alpha: 3, P0: 0.05}}
}

// TestSolveRecoversInjectedPanic drives the solver_panic injection point
// at rate 1 and checks the taxonomy end to end: no crash, a *PanicError,
// and errors.Is(ErrSolverPanic).
func TestSolveRecoversInjectedPanic(t *testing.T) {
	fault.Enable(fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.SolverPanic: 1}, Seed: 1}))
	defer fault.Enable(nil)

	rep, err := easched.Solve(context.Background(), sectionVDSpec(t))
	if rep != nil {
		t.Fatal("panicking solve returned a report")
	}
	if !errors.Is(err, easched.ErrSolverPanic) {
		t.Fatalf("err = %v, want ErrSolverPanic", err)
	}
	var pe *easched.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack not preserved: %v", err)
	}
}

// TestSolveBatchSurvivesInjectedPanics runs a batch with every solve
// panicking: the pool must complete and report per-item typed errors.
func TestSolveBatchSurvivesInjectedPanics(t *testing.T) {
	fault.Enable(fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.SolverPanic: 1}, Seed: 2}))
	defer fault.Enable(nil)

	specs := make([]easched.Spec, 8)
	for i := range specs {
		specs[i] = sectionVDSpec(t)
	}
	results := easched.SolveBatch(context.Background(), specs, 4)
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for _, r := range results {
		if r.Report != nil || !errors.Is(r.Err, easched.ErrSolverPanic) {
			t.Fatalf("item %d: report=%v err=%v, want ErrSolverPanic", r.Index, r.Report, r.Err)
		}
	}
}

// TestSolveClassifiesDeadline pins that an expired context surfaces as
// ErrDeadlineExceeded via the solver_delay injection point.
func TestSolveClassifiesDeadline(t *testing.T) {
	fault.Enable(fault.New(fault.Plan{
		Rates: map[fault.Point]float64{fault.SolverDelay: 1},
		Delay: 50 * time.Millisecond,
		Seed:  3,
	}))
	defer fault.Enable(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := easched.Solve(ctx, sectionVDSpec(t))
	if err == nil {
		t.Fatal("deadline-blown solve succeeded")
	}
	if !errors.Is(err, easched.ErrDeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline classification", err)
	}
}

// TestSolveClassifiesInfeasible pins that MethodCapped below the minimal
// feasible speed reports ErrInfeasible.
func TestSolveClassifiesInfeasible(t *testing.T) {
	spec := sectionVDSpec(t)
	spec.Method = easched.MethodCapped
	// Above the model's critical frequency (≈0.29) but below the minimal
	// feasible uniform speed (task 0 alone needs 8/10 = 0.8).
	spec.FrequencyCap = 0.4
	_, err := easched.Solve(context.Background(), spec)
	if !errors.Is(err, easched.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestSolveClassifiesAllocError checks the injected allocator failure is
// a typed fault error, not a panic or silence.
func TestSolveClassifiesAllocError(t *testing.T) {
	fault.Enable(fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.AllocError: 1}, Seed: 4}))
	defer fault.Enable(nil)

	_, err := easched.Solve(context.Background(), sectionVDSpec(t))
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.AllocError {
		t.Fatalf("err = %v, want injected alloc_error", err)
	}
}

// TestTaxonomySentinelsDistinct guards against sentinel aliasing.
func TestTaxonomySentinelsDistinct(t *testing.T) {
	sentinels := []error{
		easched.ErrInfeasible, easched.ErrDeadlineExceeded,
		easched.ErrSolverPanic, easched.ErrInvalidSchedule,
	}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinels %d and %d alias each other", i, j)
			}
		}
	}
}
