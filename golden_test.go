package repro

// Golden-value lock on the paper's Section V.D worked example (n = 6,
// m = 4, p(f) = f³). The paper reports E^F1 = 33.0642 and E^F2 = 31.8362;
// these tests pin the reproduction through the public API at 1e-3 so a
// numeric-kernel change (allocator, interval decomposition, energy
// accounting) cannot silently drift the headline numbers. The tolerance
// is absolute: the published values carry four decimals.

import (
	"context"
	"math"
	"testing"

	"repro/easched"
	"repro/internal/task"
)

const (
	paperEF1  = 33.0642
	paperEF2  = 31.8362
	goldenTol = 1e-3
)

// solveBoth runs the evenly allocating (S^F1) and the DER-based (S^F2)
// subinterval heuristics on one instance through easched.Solve.
func solveBoth(t *testing.T, ts easched.TaskSet, cores int, pm easched.Model) (even, der *easched.Plan) {
	t.Helper()
	plans := make([]*easched.Plan, 2)
	for i, m := range []easched.SolveMethod{easched.MethodEven, easched.MethodDER} {
		rep, err := easched.Solve(context.Background(), easched.Spec{Tasks: ts, Cores: cores, Model: pm, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = rep.Plan
	}
	return plans[0], plans[1]
}

func TestGoldenSectionVD(t *testing.T) {
	ts := task.SectionVDExample()
	pm := easched.NewModel(3, 0)
	even, der := solveBoth(t, ts, 4, pm)
	if got := even.FinalEnergy; math.Abs(got-paperEF1) > goldenTol {
		t.Errorf("E^F1 = %.6f, paper Section V.D reports %.4f (tol %g)", got, paperEF1, goldenTol)
	}
	if got := der.FinalEnergy; math.Abs(got-paperEF2) > goldenTol {
		t.Errorf("E^F2 = %.6f, paper Section V.D reports %.4f (tol %g)", got, paperEF2, goldenTol)
	}
	// The paper's qualitative claim: DER allocation strictly beats Even on
	// this instance.
	if der.FinalEnergy >= even.FinalEnergy {
		t.Errorf("E^F2 = %.6f should be strictly below E^F1 = %.6f", der.FinalEnergy, even.FinalEnergy)
	}
}

func TestGoldenSectionVDSchedulesValidate(t *testing.T) {
	ts := task.SectionVDExample()
	pm := easched.NewModel(3, 0)
	even, der := solveBoth(t, ts, 4, pm)
	for name, plan := range map[string]*easched.Plan{"even": even, "der": der} {
		if v := easched.Verify(plan.Final, ts, 4, pm); len(v) > 0 {
			t.Errorf("%s golden schedule invalid: %v", name, v[0])
		}
		if got := plan.Final.Energy(pm); math.Abs(got-plan.FinalEnergy) > 1e-6*plan.FinalEnergy {
			t.Errorf("%s realized energy %.6f != closed form %.6f", name, got, plan.FinalEnergy)
		}
	}
}
