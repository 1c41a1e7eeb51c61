package metamorphic

import (
	"context"
	"math"
	"testing"

	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/task"

	// Schedulers self-register with the cross-check on import.
	_ "repro/internal/core"
	_ "repro/internal/fallback"
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

// quickOpts keeps unit-test solves fast; the wider gap is folded into
// every optimum-level comparison, so looseness stays sound.
func quickOpts() Options {
	return Options{Solver: opt.Options{MaxIterations: 800, RelGap: 1e-4}, RelTol: 1e-6}
}

func TestRelationLibraryIsWellFormed(t *testing.T) {
	rels := Relations()
	if len(rels) < 10 {
		t.Fatalf("relation library has %d relations, want at least 10", len(rels))
	}
	seen := map[string]bool{}
	for _, r := range rels {
		if r.Name == "" || r.Transform == nil {
			t.Fatalf("relation %+v missing name or transform", r)
		}
		if r.Justification == "" {
			t.Fatalf("relation %s has no mathematical justification", r.Name)
		}
		if seen[r.Name] {
			t.Fatalf("duplicate relation name %s", r.Name)
		}
		seen[r.Name] = true
		if got, ok := RelationByName(r.Name); !ok || got.Name != r.Name {
			t.Fatalf("RelationByName(%q) failed", r.Name)
		}
	}
	if _, ok := RelationByName("no-such-relation"); ok {
		t.Fatal("RelationByName matched an unknown name")
	}
}

func TestTransformsDoNotMutateBase(t *testing.T) {
	base := Instance{Tasks: task.SectionVDExample(), Cores: 4, Model: power.Unit(3, 0.1)}
	for _, rel := range Relations() {
		snapshot := base.Clone()
		_ = rel.Transform(base.Clone())
		for i := range base.Tasks {
			if base.Tasks[i] != snapshot.Tasks[i] {
				t.Fatalf("%s mutated the base task set", rel.Name)
			}
		}
		if base.Cores != snapshot.Cores || base.Model != snapshot.Model {
			t.Fatalf("%s mutated base cores/model", rel.Name)
		}
	}
}

func TestSectionVDExampleConforms(t *testing.T) {
	inst := Instance{Tasks: task.SectionVDExample(), Cores: 4, Model: power.Unit(3, 0)}
	_, vs, _, err := CheckInstance(context.Background(), inst, Relations(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("violation: %v", v)
	}
}

func TestEqualityViolationDetected(t *testing.T) {
	// Fabricate a corrupted base outcome: S^F2 reporting half its true
	// energy must trip the time-shift equality predicate.
	inst := Instance{Tasks: task.SectionVDExample(), Cores: 4, Model: power.Unit(3, 0)}
	o := quickOpts()
	o.Schedulers = []string{"S^F2"}
	base, err := Eval(context.Background(), inst, o)
	if err != nil {
		t.Fatal(err)
	}
	base.Energy["S^F2"] /= 2
	rel, _ := RelationByName("time-shift")
	vs, err := Apply(context.Background(), rel, inst, base, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("corrupted base energy not flagged by time-shift")
	}
	if vs[0].Scheduler != "S^F2" || vs[0].Relation != "time-shift" {
		t.Fatalf("unexpected violation %v", vs[0])
	}
}

func TestMonotoneViolationsDetected(t *testing.T) {
	inst := Instance{Tasks: task.SectionVDExample(), Cores: 4, Model: power.Unit(3, 0.2)}
	o := quickOpts()
	o.Schedulers = []string{}
	base, err := Eval(context.Background(), inst, o)
	if err != nil {
		t.Fatal(err)
	}

	// NonIncreasing: pretend the base optimum were tiny — adding a core
	// cannot legitimately land above it.
	low := *base
	low.Optimum, low.Gap = 1e-9, 0
	rel, _ := RelationByName("add-core")
	vs, err := Apply(context.Background(), rel, inst, &low, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("add-core did not flag an impossible optimum increase")
	}

	// NonDecreasing: pretend the base optimum were huge — raising p0
	// cannot legitimately land below it.
	high := *base
	high.Optimum, high.Gap = base.Optimum*100, 0
	rel, _ = RelationByName("raise-leakage")
	vs, err = Apply(context.Background(), rel, inst, &high, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("raise-leakage did not flag an impossible optimum decrease")
	}
}

func TestCriticalFrequencySideCondition(t *testing.T) {
	rel, _ := RelationByName("raise-leakage")
	base := Instance{Model: power.Unit(3, 0.1)}
	follow := Instance{Model: power.Unit(3, 0.2)}
	if err := rel.Extra(base, follow); err != nil {
		t.Fatalf("monotone critical frequency flagged: %v", err)
	}
	if err := rel.Extra(follow, base); err == nil {
		t.Fatal("decreasing critical frequency not flagged")
	}
}

func TestMinimizeShrinksViolatingInstance(t *testing.T) {
	// A deliberately wrong relation — "shifting doubles energy" — that
	// every instance violates, so Minimize must walk it down to a single
	// task on a single core.
	bogus := Relation{
		Name:          "bogus-shift-doubles",
		Justification: "intentionally false, for testing the minimizer",
		Transform: func(in Instance) Instance {
			for i := range in.Tasks {
				in.Tasks[i].Release += 10
				in.Tasks[i].Deadline += 10
			}
			return in
		},
		Factor:    func(Instance) float64 { return 2 },
		Direction: Equal,
	}
	inst := Instance{Tasks: task.SectionVDExample(), Cores: 4, Model: power.Unit(3, 0)}
	o := quickOpts()
	o.Schedulers = []string{"S^F2"}
	small := Minimize(context.Background(), bogus, inst, o, 0)
	if len(small.Tasks) != 1 || small.Cores != 1 {
		t.Fatalf("minimizer stopped at n=%d m=%d, want 1/1", len(small.Tasks), small.Cores)
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("minimized instance invalid: %v", err)
	}
}

func TestEvalRejectsInvalidInstances(t *testing.T) {
	if _, err := Eval(context.Background(), Instance{Cores: 2, Model: power.Unit(3, 0)}, quickOpts()); err == nil {
		t.Fatal("empty task set accepted")
	}
	bad := Instance{Tasks: task.Fig1Example(), Cores: 0, Model: power.Unit(3, 0)}
	if _, err := Eval(context.Background(), bad, quickOpts()); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestRunSuiteSmallMatrixClean(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	rep, err := RunSuite(context.Background(), SuiteOptions{
		Instances: 18,
		Seed:      42,
		MaxTasks:  6,
		Solver:    opt.Options{MaxIterations: 800, RelGap: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations on small matrix:\n%s", rep.Summary())
	}
	if len(rep.Ratios) == 0 {
		t.Fatal("no ratio statistics collected")
	}
	for name, st := range rep.Ratios {
		if st.Count == 0 || math.IsNaN(st.Mean) {
			t.Fatalf("ratio stat for %s empty: %+v", name, st)
		}
		// Ratios are taken against the solver's feasible value, which sits
		// up to Gap above the true optimum — with this test's deliberately
		// loose solver a ratio may dip slightly below 1. Anything further
		// below would have tripped the gap-aware above-optimum check.
		if st.Min < 0.98 {
			t.Errorf("%s min ratio %.6f below 1: scheduler beat the optimum", name, st.Min)
		}
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	run := func() *Report {
		rep, err := RunSuite(context.Background(), SuiteOptions{
			Instances: 6, Seed: 7, MaxTasks: 5,
			Solver:     opt.Options{MaxIterations: 600, RelGap: 1e-4},
			Schedulers: []string{"S^F2", "YDS"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Ratios["S^F2"] != b.Ratios["S^F2"] {
		t.Fatalf("suite not deterministic: %+v vs %+v", a.Ratios["S^F2"], b.Ratios["S^F2"])
	}
}

func TestSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuite(ctx, SuiteOptions{Instances: 50, Seed: 1})
	if err == nil {
		t.Fatal("canceled suite returned nil error")
	}
}
