package easched_test

import (
	"context"
	"fmt"

	"repro/easched"
)

// The paper's Section V.D worked example: six tasks on a quad-core with
// p(f) = f³. The DER-based final schedule reproduces the published
// energy of 31.8362.
func ExampleSolve_sectionVD() {
	tasks := easched.MustTasks(
		easched.T(0, 8, 10),
		easched.T(2, 14, 18),
		easched.T(4, 8, 16),
		easched.T(6, 4, 14),
		easched.T(8, 10, 20),
		easched.T(12, 6, 22),
	)
	rep, err := easched.Solve(context.Background(), easched.Spec{
		Tasks: tasks, Cores: 4, Model: easched.NewModel(3, 0), Method: easched.MethodDER,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("E^F2 = %.4f\n", rep.Energy)
	// Output:
	// E^F2 = 31.8362
}

// Both allocation methods on the same instance: the DER-based method
// (the paper's recommendation) wins.
func ExampleSolve_bothMethods() {
	tasks := easched.MustTasks(
		easched.T(0, 8, 10),
		easched.T(2, 14, 18),
		easched.T(4, 8, 16),
		easched.T(6, 4, 14),
		easched.T(8, 10, 20),
		easched.T(12, 6, 22),
	)
	for _, m := range []easched.SolveMethod{easched.MethodEven, easched.MethodDER} {
		rep, err := easched.Solve(context.Background(), easched.Spec{
			Tasks: tasks, Cores: 4, Model: easched.NewModel(3, 0), Method: m,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-5s %.4f\n", m+":", rep.Energy)
	}
	// Output:
	// even: 33.0642
	// der:  31.8362
}

// The introductory YDS example (Fig. 1): speed 1 on the critical
// interval [4,8], 0.75 elsewhere.
func ExampleSolve_yds() {
	tasks := easched.MustTasks(
		easched.T(0, 4, 12),
		easched.T(2, 2, 10),
		easched.T(4, 4, 8),
	)
	rep, err := easched.Solve(context.Background(), easched.Spec{
		Tasks: tasks, Cores: 1, Model: easched.NewModel(3, 0), Method: easched.MethodYDS,
	})
	if err != nil {
		panic(err)
	}
	for _, b := range rep.YDSProfile.Bands {
		fmt.Printf("[%g, %g] speed %.2f\n", b.Start, b.End, b.Speed)
	}
	// Output:
	// [0, 4] speed 0.75
	// [4, 8] speed 1.00
	// [8, 12] speed 0.75
}

// The motivational example of Section II: the convex optimum on two
// cores with p(f) = f³ + 0.01 matches the paper's KKT solution,
// 155/32 + 0.2.
func ExampleSolve_optimal() {
	tasks := easched.MustTasks(
		easched.T(0, 4, 12),
		easched.T(2, 2, 10),
		easched.T(4, 4, 8),
	)
	rep, err := easched.Solve(context.Background(), easched.Spec{
		Tasks: tasks, Cores: 2, Model: easched.NewModel(3, 0.01), Compare: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("E^opt = %.3f\n", rep.Optimal.Energy)
	// Output:
	// E^opt = 5.044
}

// Schedulability analysis via the max-flow reduction: the Fig. 1
// instance needs speed exactly 1 on a uniprocessor.
func ExampleMinimalSpeed() {
	tasks := easched.MustTasks(
		easched.T(0, 4, 12),
		easched.T(2, 2, 10),
		easched.T(4, 4, 8),
	)
	s, err := easched.MinimalSpeed(tasks, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("minimal feasible speed: %.3f\n", s)
	// Output:
	// minimal feasible speed: 1.000
}

// Quantizing a continuous schedule onto the Intel XScale operating
// points (Table III).
func ExampleQuantize() {
	tab := easched.IntelXScale()
	model, err := easched.FitTable(tab)
	if err != nil {
		panic(err)
	}
	// One job: 4000 Mcycles, must finish within 20 s → 200 MHz minimum.
	tasks := easched.MustTasks(easched.T(0, 4000, 20))
	rep, err := easched.Solve(context.Background(), easched.Spec{Tasks: tasks, Cores: 1, Model: model})
	if err != nil {
		panic(err)
	}
	a := easched.Quantize(rep.Schedule, tab)
	fmt.Printf("missed: %v\n", a.Missed)
	// Output:
	// missed: false
}

// The current entry point: one Spec in, one unified Report out, with
// context cancellation and the optimal comparison in the same call.
func ExampleSolve() {
	tasks := easched.MustTasks(
		easched.T(0, 8, 10),
		easched.T(2, 14, 18),
		easched.T(4, 8, 16),
		easched.T(6, 4, 14),
		easched.T(8, 10, 20),
		easched.T(12, 6, 22),
	)
	rep, err := easched.Solve(context.Background(), easched.Spec{
		Tasks:   tasks,
		Cores:   4,
		Model:   easched.NewModel(3, 0),
		Method:  easched.MethodDER,
		Compare: true, // also solve the convex program for E^opt
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("E^F2 = %.4f, NEC = %.4f\n", rep.Energy, rep.NEC)
	// Output:
	// E^F2 = 31.8362, NEC = 1.0136
}

// A streaming session: tasks arrive over virtual time, the runtime
// re-plans the residual workload at each arrival, and Finish accounts
// the realized schedule against the clairvoyant offline optimum.
func ExampleNewSession() {
	s, err := easched.NewSession(easched.SessionConfig{
		Algorithm: "ReplanDER",
		Cores:     4,
		Model:     easched.NewModel(3, 0),
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()

	ctx := context.Background()
	// The Section V.D instance, fed in two arrival batches.
	first := easched.MustTasks(
		easched.T(0, 8, 10),
		easched.T(2, 14, 18),
		easched.T(4, 8, 16),
	)
	second := easched.MustTasks(
		easched.T(6, 4, 14),
		easched.T(8, 10, 20),
		easched.T(12, 6, 22),
	)
	if _, _, err := s.Arrive(ctx, 0, first); err != nil {
		panic(err)
	}
	if _, _, err := s.Arrive(ctx, 6, second); err != nil {
		panic(err)
	}
	rep, err := s.Finish(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed %d tasks, missed %d deadlines, ratio >= 1: %v\n",
		rep.Completed, len(rep.Missed), rep.CompetitiveRatio >= 1)
	// Output:
	// completed 6 tasks, missed 0 deadlines, ratio >= 1: true
}
