package easched

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// mustSolve runs one spec through Solve, failing the test on error.
func mustSolve(t *testing.T, spec Spec) *Report {
	t.Helper()
	rep, err := Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestQuickstartFlow(t *testing.T) {
	tasks := MustTasks(
		T(0, 8, 10),
		T(2, 14, 18),
		T(4, 8, 16),
		T(6, 4, 14),
		T(8, 10, 20),
		T(12, 6, 22),
	)
	model := NewModel(3, 0)
	res := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model}).Plan
	// The Section V.D example through the public API.
	if math.Abs(res.FinalEnergy-31.8362) > 5e-4 {
		t.Errorf("FinalEnergy = %.4f, want 31.8362", res.FinalEnergy)
	}
	rep, err := Simulate(res.Final, model)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("simulated violations: %v", rep.Violations)
	}
	if math.Abs(rep.Energy-res.FinalEnergy) > 1e-6*res.FinalEnergy {
		t.Errorf("sim energy %g != plan energy %g", rep.Energy, res.FinalEnergy)
	}
	if vs := Verify(res.Final, tasks, 4, model); len(vs) > 0 {
		t.Errorf("final schedule fails verification: %v", vs)
	}
}

func TestScheduleBothOrdering(t *testing.T) {
	tasks := MustTasks(
		T(0, 8, 10), T(2, 14, 18), T(4, 8, 16),
		T(6, 4, 14), T(8, 10, 20), T(12, 6, 22),
	)
	even := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: NewModel(3, 0), Method: MethodEven}).Plan
	der := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: NewModel(3, 0), Method: MethodDER}).Plan
	if der.FinalEnergy >= even.FinalEnergy {
		t.Errorf("DER %.4f should beat Even %.4f here", der.FinalEnergy, even.FinalEnergy)
	}
}

func TestOptimalLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tasks, err := GenerateTasks(rng, PaperWorkload(12))
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(3, 0.1)
	rep := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model, Compare: true})
	if sol := rep.Optimal; sol.Energy > rep.Energy+sol.Gap+1e-6 {
		t.Errorf("optimal %.6f above heuristic %.6f", sol.Energy, rep.Energy)
	}
}

func TestIdealAndYDS(t *testing.T) {
	tasks := MustTasks(T(0, 4, 12), T(2, 2, 10), T(4, 4, 8))
	plan, err := Ideal(tasks, NewModel(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 3 {
		t.Fatalf("ideal plan covers %d tasks", len(plan.Tasks))
	}
	rep := mustSolve(t, Spec{Tasks: tasks, Cores: 1, Model: NewModel(3, 0), Method: MethodYDS})
	sched, prof := rep.Schedule, rep.YDSProfile
	if got := prof.SpeedAt(5); math.Abs(got-1) > 1e-9 {
		t.Errorf("YDS speed at 5 = %g, want 1", got)
	}
	if e := sched.Energy(NewModel(3, 0)); math.Abs(e-7.375) > 1e-9 {
		t.Errorf("YDS energy = %g, want 7.375", e)
	}
}

func TestQuantizeAndFit(t *testing.T) {
	tab := IntelXScale()
	model, err := FitTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	tasks, err := GenerateTasks(rng, XScaleWorkload(10))
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model}).Plan
	a := Quantize(res.Final, tab)
	if a.Energy <= 0 {
		t.Errorf("quantized energy = %g", a.Energy)
	}
}

func TestSearchCoresAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tasks, err := GenerateTasks(rng, PaperWorkload(8))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := SearchCores(tasks, 4, NewModel(3, 0.3), DER)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cores < 1 || sr.Cores > 4 {
		t.Errorf("chosen cores = %d", sr.Cores)
	}
}
