package easched_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/easched"
)

func solveWorkload(t testing.TB, n int) easched.TaskSet {
	t.Helper()
	rng := rand.New(rand.NewSource(20140901))
	ts, err := easched.GenerateTasks(rng, easched.PaperWorkload(n))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestSolveDefaultsToDER(t *testing.T) {
	ts := solveWorkload(t, 20)
	m := easched.NewModel(3, 0.05)
	rep, err := easched.Solve(context.Background(), easched.Spec{Tasks: ts, Cores: 4, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != easched.MethodDER {
		t.Fatalf("default method = %q, want %q", rep.Method, easched.MethodDER)
	}
	if rep.Plan == nil || rep.Schedule == nil {
		t.Fatal("DER report missing Plan or Schedule")
	}
	if rep.Energy != rep.Plan.FinalEnergy {
		t.Fatalf("Energy %g != Plan.FinalEnergy %g", rep.Energy, rep.Plan.FinalEnergy)
	}
}

func TestSolveEveryMethodVerifies(t *testing.T) {
	ts := solveWorkload(t, 20)
	m := easched.NewModel(3, 0.05)
	for _, method := range []easched.SolveMethod{
		easched.MethodDER, easched.MethodEven, easched.MethodYDS,
		easched.MethodPartitioned, easched.MethodOnline, easched.MethodCapped,
	} {
		spec := easched.Spec{Tasks: ts, Cores: 4, Model: m, Method: method}
		if method == easched.MethodCapped {
			spec.FrequencyCap = 4
		}
		cores := 4
		if method == easched.MethodYDS {
			cores = 1 // YDS realizes on a single core
		}
		rep, err := easched.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if rep.Schedule == nil || !(rep.Energy > 0) {
			t.Fatalf("%s: missing schedule or energy", method)
		}
		if v := easched.Verify(rep.Schedule, ts, cores, m); len(v) > 0 {
			t.Fatalf("%s: validator rejected schedule: %v", method, v[0])
		}
	}
}

func TestSolveMethodErrors(t *testing.T) {
	ts := solveWorkload(t, 10)
	m := easched.NewModel(3, 0.05)
	if _, err := easched.Solve(context.Background(),
		easched.Spec{Tasks: ts, Cores: 4, Model: m, Method: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := easched.Solve(context.Background(),
		easched.Spec{Tasks: ts, Cores: 4, Model: m, Method: easched.MethodCapped}); err == nil {
		t.Fatal("capped without FrequencyCap accepted")
	}
}

func TestSolveCompareAndDiscrete(t *testing.T) {
	ts := solveWorkload(t, 20)
	m := easched.NewModel(3, 0.05)
	rep, err := easched.Solve(context.Background(), easched.Spec{
		Tasks: ts, Cores: 4, Model: m,
		Compare: true, Discrete: easched.IntelXScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Optimal == nil {
		t.Fatal("Compare did not fill Optimal")
	}
	// The heuristic can never beat the convex optimum by more than the
	// duality gap, so the normalized energy stays (numerically) >= 1.
	if rep.NEC < 1-1e-6 {
		t.Fatalf("NEC = %g < 1: heuristic beat the optimum", rep.NEC)
	}
	if rep.Quantized == nil {
		t.Fatal("Discrete did not fill Quantized")
	}
	if rep.Quantized.Missed {
		t.Fatalf("quantized schedule misses deadlines: tasks %v", rep.Quantized.MissedTasks)
	}
}

func TestSolvePreCanceledContext(t *testing.T) {
	ts := solveWorkload(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := easched.Solve(ctx, easched.Spec{Tasks: ts, Cores: 4, Model: easched.NewModel(3, 0.05)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolveCancellationPrompt cancels a large DER solve mid-flight and
// requires the call to return within cancelSlack of the cancellation —
// the PR-4 contract that a schedd timeout actually frees the worker.
func TestSolveCancellationPrompt(t *testing.T) {
	ts := solveWorkload(t, 500)
	spec := easched.Spec{Tasks: ts, Cores: 16, Model: easched.NewModel(3, 0.05)}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := easched.Solve(ctx, spec)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		// The solve may legitimately win the race on a fast machine.
		if err != nil {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
		t.Skip("solve finished before cancellation")
	}
	if elapsed > 2*time.Millisecond+cancelSlack {
		t.Fatalf("canceled solve returned after %v, want within %v of cancel", elapsed, cancelSlack)
	}
}

// TestSolveCompareCancellationPrompt does the same through the convex
// solver, whose iterations poll the context.
func TestSolveCompareCancellationPrompt(t *testing.T) {
	ts := solveWorkload(t, 200)
	spec := easched.Spec{Tasks: ts, Cores: 16, Model: easched.NewModel(3, 0.05), Compare: true}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := easched.Solve(ctx, spec)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		if err != nil {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
		t.Skip("solve finished before cancellation")
	}
	if elapsed > 5*time.Millisecond+cancelSlack {
		t.Fatalf("canceled compare solve returned after %v, want within %v of cancel", elapsed, cancelSlack)
	}
}

func TestSolveBatchMatchesSolo(t *testing.T) {
	m := easched.NewModel(3, 0.05)
	rng := rand.New(rand.NewSource(7))
	specs := make([]easched.Spec, 8)
	for i := range specs {
		ts, err := easched.GenerateTasks(rng, easched.PaperWorkload(15))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = easched.Spec{Tasks: ts, Cores: 4, Model: m}
	}
	results := easched.SolveBatch(context.Background(), specs, 3)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("item %d reports index %d", i, r.Index)
		}
		solo, err := easched.Solve(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Report.Energy-solo.Energy) > 1e-9*solo.Energy {
			t.Fatalf("item %d: batch energy %g != solo %g", i, r.Report.Energy, solo.Energy)
		}
	}
}

func TestSolveBatchCanceled(t *testing.T) {
	ts := solveWorkload(t, 10)
	specs := make([]easched.Spec, 4)
	for i := range specs {
		specs[i] = easched.Spec{Tasks: ts, Cores: 4, Model: easched.NewModel(3, 0.05)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range easched.SolveBatch(ctx, specs, 2) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestSolveAllocRegression guards the PR-4 hot-path work: a warmed-up
// DER solve of the n=100, m=16 acceptance instance must stay within an
// allocation ceiling far below the ~11k allocs/op of the pre-PR code.
func TestSolveAllocRegression(t *testing.T) {
	ts := solveWorkload(t, 100)
	spec := easched.Spec{Tasks: ts, Cores: 16, Model: easched.NewModel(3, 0.05)}
	ctx := context.Background()
	if _, err := easched.Solve(ctx, spec); err != nil { // warm the solver pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := easched.Solve(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~50 allocs/op after PR 4 (pre-PR: 10981). The ceiling
	// leaves ~4x headroom for runtime noise while still catching any
	// return to per-subinterval allocation.
	if avg > 200 {
		t.Fatalf("Solve(DER, n=100, m=16) allocates %.0f/op, ceiling 200", avg)
	}
}
