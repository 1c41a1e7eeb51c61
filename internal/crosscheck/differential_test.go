package crosscheck_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/crosscheck"
	"repro/internal/power"
	"repro/internal/task"

	// Every scheduler self-registers on import; the differential runs
	// whatever is registered.
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

// TestSectionVDWorkedExample drives the paper's Section V.D instance
// through the full differential: every scheduler validates, agrees with
// the oracles, and the published energies reappear through the
// validator's independent re-integration.
func TestSectionVDWorkedExample(t *testing.T) {
	rep, err := crosscheck.Differential(task.SectionVDExample(), 4, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("differential failed on the worked example:\n%s", rep.Summary())
	}
	for name, want := range map[string]float64{"S^F1": 33.0642, "S^F2": 31.8362} {
		res := rep.Result(name)
		if res == nil {
			t.Fatalf("%s missing from report", name)
		}
		if math.Abs(res.Recomputed-want) > 5e-4 {
			t.Errorf("%s re-integrated energy %.4f, paper reports %.4f", name, res.Recomputed, want)
		}
		if math.Abs(res.Energy-res.Recomputed) > 1e-6*want {
			t.Errorf("%s reported %.9f vs re-integrated %.9f", name, res.Energy, res.Recomputed)
		}
	}
	if math.IsNaN(rep.Brute) {
		t.Error("brute-force cross-check skipped on a 6-task instance")
	}
}

func TestDifferentialRandomInstances(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		n, m  int
		alpha float64
		p0    float64
	}{
		{1, 5, 2, 3, 0},
		{2, 6, 3, 3, 0.1},
		{3, 10, 4, 2, 0.05},
		{4, 8, 1, 2.5, 0.2},
		{5, 12, 5, 3, 0},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		ts := task.MustGenerate(rng, task.PaperDefaults(tc.n))
		rep, err := crosscheck.Differential(ts, tc.m, power.Unit(tc.alpha, tc.p0))
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if !rep.OK() {
			t.Errorf("seed %d (n=%d m=%d):\n%s", tc.seed, tc.n, tc.m, rep.Summary())
		}
	}
}

// TestDifferentialUniprocessorExactness: with one core and no static
// power, YDS and the convex program are both exact, so the differential
// must see them coincide.
func TestDifferentialUniprocessorExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts := task.MustGenerate(rng, task.PaperDefaults(6))
	rep, err := crosscheck.Differential(ts, 1, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("uniprocessor differential failed:\n%s", rep.Summary())
	}
	y := rep.Result("YDS")
	if y == nil {
		t.Fatal("YDS missing from report")
	}
	tol := 1e-3*rep.Optimum + rep.Gap
	if math.Abs(y.Energy-rep.Optimum) > tol {
		t.Errorf("YDS %.6f vs convex optimum %.6f (tol %.2g)", y.Energy, rep.Optimum, tol)
	}
}

func TestDifferentialOnlyFilter(t *testing.T) {
	rep, err := crosscheck.DifferentialOpts(task.Fig1Example(), 2, power.Unit(3, 0),
		crosscheck.DiffOptions{Only: []string{"S^F2", "YDS"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("Only filter kept %d results, want 2: %s", len(rep.Results), rep.Summary())
	}
	if !rep.OK() {
		t.Fatalf("filtered differential failed:\n%s", rep.Summary())
	}
}

func TestDifferentialInputValidation(t *testing.T) {
	ts := task.Fig1Example()
	if _, err := crosscheck.Differential(ts, 0, power.Unit(3, 0)); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := crosscheck.Differential(ts, 2, power.Model{Gamma: 1, Alpha: 1.5}); err == nil {
		t.Error("non-convex power model accepted")
	}
	if _, err := crosscheck.Differential(task.Set{}, 2, power.Unit(3, 0)); err == nil {
		t.Error("empty task set accepted")
	}
}
