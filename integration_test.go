package repro

// Cross-module integration tests: every scheduler in the repository is
// run on shared workloads and checked against every independent oracle —
// the schedule validator, the discrete-event simulator, the max-flow
// feasibility analyzer, and the convex optimal solver. These tests bind
// the subsystems together the way the experiment harness does, but with
// hard assertions rather than statistical summaries.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/easched"
	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/online"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/yds"
)

// oracleCheck runs a realized schedule through both independent checkers
// and verifies energy agreement with the analytic value.
func oracleCheck(t *testing.T, s *schedule.Schedule, pm power.Model, wantEnergy float64, label string) {
	t.Helper()
	if v := check.Validate(s, s.Tasks, s.Cores, pm); len(v) > 0 {
		t.Fatalf("%s: validator: %v", label, v[0])
	}
	rep, err := sim.Run(s, pm)
	if err != nil {
		t.Fatalf("%s: sim: %v", label, err)
	}
	if !rep.OK() {
		t.Fatalf("%s: sim violations: %v", label, rep.Violations)
	}
	if math.Abs(rep.Energy-wantEnergy) > 1e-6*math.Max(1, wantEnergy) {
		t.Errorf("%s: sim energy %.6f != analytic %.6f", label, rep.Energy, wantEnergy)
	}
}

func TestAllSchedulersAgreeOnOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 8; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(14))
		m := 2 + rng.Intn(4)
		pm := power.Unit(3, rng.Float64()*0.15)

		suite, err := core.RunSuite(ts, m, pm, core.Options{Tolerance: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, suite.Even.Final, pm, suite.Even.FinalEnergy, "F1")
		oracleCheck(t, suite.DER.Final, pm, suite.DER.FinalEnergy, "F2")
		oracleCheck(t, suite.Even.Intermediate, pm, suite.Even.IntermediateEnergy, "I1")
		oracleCheck(t, suite.DER.Intermediate, pm, suite.DER.IntermediateEnergy, "I2")

		psched, pe, err := partition.Schedule(ts, m, pm)
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, psched, pm, pe, "partitioned")

		onl, err := online.ReplanDER(ts, m, pm)
		if err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, onl.Schedule, pm, onl.Energy, "online")

		// The convex optimum lower-bounds everything (up to its gap).
		d := interval.MustDecompose(ts, 1e-9)
		sol := opt.MustSolve(d, m, pm, opt.Options{})
		slack := sol.Gap + 1e-6*sol.Energy
		for label, e := range map[string]float64{
			"F1": suite.Even.FinalEnergy, "F2": suite.DER.FinalEnergy,
			"partitioned": pe, "online": onl.Energy,
		} {
			if e < sol.Energy-slack {
				t.Errorf("trial %d: %s energy %.6f below optimum %.6f", trial, label, e, sol.Energy)
			}
		}
	}
}

func TestFeasibilityConsistentWithSchedulers(t *testing.T) {
	// If the feasibility analyzer says speed s is required, the final
	// schedules' peak frequency cannot be below s (they must be at least
	// as fast somewhere), and every realized schedule must be feasible at
	// its own peak frequency.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(12))
		m := 2 + rng.Intn(3)
		d := interval.MustDecompose(ts, 1e-9)
		minSpeed, _, err := feas.MinSpeed(d, m, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		res := core.MustSchedule(ts, m, power.Unit(3, 0), alloc.DER, core.Options{Tolerance: 1e-9})
		var peak float64
		for _, f := range res.FinalFrequencies {
			peak = math.Max(peak, f)
		}
		if peak < minSpeed*(1-1e-6) {
			t.Errorf("trial %d: peak frequency %.6f below minimal feasible speed %.6f",
				trial, peak, minSpeed)
		}
		ok, _, err := feas.Feasible(d, m, peak*(1+1e-9))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("trial %d: instance infeasible at the schedule's own peak %.6f", trial, peak)
		}
	}
}

func TestUniprocessorOptimaAgree(t *testing.T) {
	// Three independent computations of the uniprocessor optimum with
	// p0 = 0 must coincide: YDS, the convex solver, and the partitioned
	// scheduler on one core.
	rng := rand.New(rand.NewSource(99))
	pm := power.Unit(3, 0)
	for trial := 0; trial < 5; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(7))
		eYDS, err := yds.Energy(ts, pm)
		if err != nil {
			t.Fatal(err)
		}
		d := interval.MustDecompose(ts, 1e-9)
		sol := opt.MustSolve(d, 1, pm, opt.Options{MaxIterations: 20000, RelGap: 1e-9})
		_, ePart, err := partition.Schedule(ts, 1, pm)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-3*sol.Energy + sol.Gap
		if math.Abs(eYDS-sol.Energy) > tol {
			t.Errorf("trial %d: YDS %.6f vs convex %.6f", trial, eYDS, sol.Energy)
		}
		if math.Abs(ePart-eYDS) > 1e-6*eYDS {
			t.Errorf("trial %d: partitioned-on-1 %.6f vs YDS %.6f", trial, ePart, eYDS)
		}
	}
}

func TestPublicAPISectionVDEndToEnd(t *testing.T) {
	// The full public-API journey on the paper's worked example,
	// asserting the published numbers.
	tasks := easched.MustTasks(
		easched.T(0, 8, 10), easched.T(2, 14, 18), easched.T(4, 8, 16),
		easched.T(6, 4, 14), easched.T(8, 10, 20), easched.T(12, 6, 22),
	)
	model := easched.NewModel(3, 0)
	even, der := solveBoth(t, tasks, 4, model)
	if math.Abs(even.FinalEnergy-33.0642) > 5e-4 || math.Abs(der.FinalEnergy-31.8362) > 5e-4 {
		t.Errorf("paper energies not reproduced: F1=%.4f F2=%.4f", even.FinalEnergy, der.FinalEnergy)
	}
	cmp, err := easched.Solve(context.Background(), easched.Spec{Tasks: tasks, Cores: 4, Model: model, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	if nec := cmp.NEC; nec < 1.0-1e-6 || nec > 1.05 {
		t.Errorf("NEC(F2) = %.4f outside [1, 1.05] on the worked example", nec)
	}
	rep, err := easched.Simulate(der.Final, model)
	if err != nil || !rep.OK() {
		t.Fatalf("simulation failed: %v / %v", err, rep.Violations)
	}
}

func TestDiscretePipelineEndToEnd(t *testing.T) {
	// XScale flow: fit → schedule → quantize (both policies) → the
	// feasibility analyzer agrees with the miss verdicts.
	tab := easched.IntelXScale()
	model, err := easched.FitTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	tasks, err := easched.GenerateTasks(rng, easched.XScaleWorkload(15))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := easched.Solve(context.Background(), easched.Spec{Tasks: tasks, Cores: 4, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Plan
	up := easched.Quantize(res.Final, tab)
	split := easched.QuantizeSplit(res.Final, tab)
	if split.Energy > up.Energy+1e-6 {
		t.Errorf("two-level %.2f worse than round-up %.2f", split.Energy, up.Energy)
	}
	if up.Missed {
		// A quantization miss implies the peak requirement exceeded
		// f_max; the flow analyzer must then also declare infeasibility
		// at f_max... only if the instance itself is infeasible, so just
		// assert the implication's premise.
		var peak float64
		for _, f := range res.FinalFrequencies {
			peak = math.Max(peak, f)
		}
		if peak <= tab.MaxFrequency() {
			t.Errorf("miss reported but peak %.1f ≤ f_max %.1f", peak, tab.MaxFrequency())
		}
	}
}
