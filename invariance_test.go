package repro

// Invariance property tests across the whole pipeline, driven by the
// metamorphic relation library (internal/metamorphic). Each relation
// pairs an instance transformation with a provable predicate — time-shift
// invariance, the p0 = 0 time/work scaling laws, scale covariance,
// optimum monotonicity — and the engine applies them to every registered
// scheduler plus the convex optimum. The transformations and their
// mathematical justifications live in one place
// (internal/metamorphic/relations.go); this file only selects instances
// and relations, so a new relation is automatically exercised here and in
// cmd/conform without duplicated generator code.
//
// Every subtest owns its rng, seeded from the case index, so instances do
// not depend on sibling execution order and the subtests can run in
// parallel.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metamorphic"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/task"

	// Schedulers self-register with the cross-check registry on import.
	_ "repro/internal/core"
	_ "repro/internal/fallback"
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

// invOpts keeps per-test solves quick; the wider duality gap is folded
// into every optimum-level predicate, so looseness stays sound.
func invOpts() metamorphic.Options {
	return metamorphic.Options{
		Solver: opt.Options{MaxIterations: 1200, RelGap: 1e-5},
		RelTol: 1e-6,
	}
}

func mustRelation(t *testing.T, name string) metamorphic.Relation {
	t.Helper()
	rel, ok := metamorphic.RelationByName(name)
	if !ok {
		t.Fatalf("relation %q not in the library", name)
	}
	return rel
}

func checkRelation(t *testing.T, rel metamorphic.Relation, inst metamorphic.Instance) {
	t.Helper()
	_, vs, _, err := metamorphic.CheckInstance(context.Background(), inst, []metamorphic.Relation{rel}, invOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("violation: %v", v)
	}
}

func TestTranslationInvariance(t *testing.T) {
	// Shifting every release and deadline by Δ changes nothing: every
	// scheduler in the registry and the convex optimum must report
	// identical energy on the shifted instance.
	rel := mustRelation(t, "time-shift")
	pm := power.Unit(3, 0.1)
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(314 + int64(trial)))
			ts := task.MustGenerate(rng, task.PaperDefaults(12))
			checkRelation(t, rel, metamorphic.Instance{Tasks: ts, Cores: 4, Model: pm})
		})
	}
}

func TestScaleCovariance(t *testing.T) {
	// Scaling time and work together by k leaves all frequencies unchanged
	// and scales E by exactly k — for any p0, because both dynamic and
	// static energy are rates integrated over a k-times-longer horizon.
	rel := mustRelation(t, "time-work-scale")
	for trial, p0 := range []float64{0, 0.2} {
		trial, p0 := trial, p0
		t.Run(fmt.Sprintf("p0=%g", p0), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(628 + int64(trial)))
			ts := task.MustGenerate(rng, task.PaperDefaults(10))
			checkRelation(t, rel, metamorphic.Instance{Tasks: ts, Cores: 4, Model: power.Unit(3, p0)})
		})
	}
}

func TestTimeScalingLawNoStaticPower(t *testing.T) {
	// With p0 = 0 and windows stretched by c (same work), every schedule's
	// frequencies divide by c, so energy scales by c^(1−α).
	rel := mustRelation(t, "time-stretch-zero-leak")
	for i, alpha := range []float64{2, 3} {
		i, alpha := i, alpha
		t.Run(fmt.Sprintf("alpha%g", alpha), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(271 + int64(i)))
			ts := task.MustGenerate(rng, task.PaperDefaults(10))
			checkRelation(t, rel, metamorphic.Instance{Tasks: ts, Cores: 4, Model: power.Unit(alpha, 0)})
		})
	}
}

func TestWorkScalingLawNoStaticPower(t *testing.T) {
	// With p0 = 0 and all work multiplied by c (same windows), all
	// frequencies multiply by c and energy scales by c^α.
	rel := mustRelation(t, "work-scale-zero-leak")
	t.Parallel()
	rng := rand.New(rand.NewSource(161))
	ts := task.MustGenerate(rng, task.PaperDefaults(10))
	checkRelation(t, rel, metamorphic.Instance{Tasks: ts, Cores: 4, Model: power.Unit(3, 0)})
}

func TestOptimumMonotonicity(t *testing.T) {
	// The convex optimum is monotone in the instance: more cores, a looser
	// deadline, less work, or a dropped task can only help; more static
	// power can only hurt.
	pm := power.Unit(2.5, 0.15)
	for _, name := range []string{"add-core", "relax-deadline", "drop-task", "shrink-work", "raise-leakage"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rel := mustRelation(t, name)
			rng := rand.New(rand.NewSource(42))
			ts := task.MustGenerate(rng, task.PaperDefaults(8))
			checkRelation(t, rel, metamorphic.Instance{Tasks: ts, Cores: 3, Model: pm})
		})
	}
}

func TestInvarianceAcrossRegimes(t *testing.T) {
	// One instance from each generator regime through the full relation
	// library — the same matrix cmd/conform soaks nightly, at spot-check
	// scale so `go test ./...` exercises every regime × relation pair.
	if testing.Short() {
		t.Skip("matrix spot check in -short mode")
	}
	for i, regime := range task.Regimes() {
		i, regime := i, regime
		t.Run(string(regime), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1000 + int64(i)))
			ts, err := task.GenerateRegime(rng, regime, 5)
			if err != nil {
				t.Fatal(err)
			}
			inst := metamorphic.Instance{Tasks: ts, Cores: 1 + i%4, Model: power.Unit(3, float64(i%2)*0.1)}
			_, vs, _, err := metamorphic.CheckInstance(context.Background(), inst, metamorphic.Relations(), invOpts())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				t.Errorf("violation: %v", v)
			}
		})
	}
}
