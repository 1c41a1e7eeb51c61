package feas_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/power"
	"repro/internal/task"
	"repro/internal/yds"
)

func TestFig1FeasibilityThreshold(t *testing.T) {
	// On a uniprocessor the minimal feasible speed of the Fig. 1 instance
	// is the YDS peak speed: 1 (interval [4,8] has intensity 1).
	ts := task.Fig1Example()
	d := interval.MustDecompose(ts, 0)
	ok, w, err := feas.Feasible(d, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("speed 1 must be feasible")
	}
	if err := w.Validate(d, 1); err != nil {
		t.Fatal(err)
	}
	ok, _, err = feas.Feasible(d, 1, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("speed 0.99 must be infeasible (peak intensity is 1)")
	}
}

func TestMinSpeedMatchesYDSPeak(t *testing.T) {
	// The minimal uniform feasible speed on one core equals the maximum
	// speed of the YDS profile (the greatest interval intensity).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(8))
		d := interval.MustDecompose(ts, 0)
		s, w, err := feas.MinSpeed(d, 1, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := yds.BuildProfile(ts)
		if err != nil {
			t.Fatal(err)
		}
		var peak float64
		for _, b := range prof.Bands {
			if b.Speed > peak {
				peak = b.Speed
			}
		}
		if math.Abs(s-peak) > 1e-6*peak {
			t.Errorf("trial %d: MinSpeed %.8f vs YDS peak %.8f", trial, s, peak)
		}
		if err := w.Validate(d, 1); err != nil {
			t.Errorf("trial %d: witness invalid: %v", trial, err)
		}
	}
}

func TestMoreCoresNeverHurt(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(12))
		d := interval.MustDecompose(ts, 0)
		prev := math.Inf(1)
		for m := 1; m <= 6; m++ {
			s, _, err := feas.MinSpeed(d, m, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			if s > prev*(1+1e-9) {
				t.Errorf("trial %d: MinSpeed increased from %.6f to %.6f at m=%d", trial, prev, s, m)
			}
			prev = s
		}
		// With m ≥ n, the minimal speed is exactly the max intensity.
		s, _, err := feas.MinSpeed(d, len(ts), 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-ts.MaxIntensity()) > 1e-6*s {
			t.Errorf("trial %d: unconstrained MinSpeed %.8f != max intensity %.8f",
				trial, s, ts.MaxIntensity())
		}
	}
}

func TestLowerBoundIsNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(10))
		d := interval.MustDecompose(ts, 0)
		m := 1 + rng.Intn(4)
		lb := feas.LowerBound(d, m)
		ok, _, err := feas.Feasible(d, m, lb*(1-1e-6))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("trial %d: feasible strictly below the lower bound %.6f", trial, lb)
		}
	}
}

func TestMinSpeedIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ts := task.MustGenerate(rng, task.PaperDefaults(12))
	d := interval.MustDecompose(ts, 0)
	s, _, err := feas.MinSpeed(d, 3, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := feas.Feasible(d, 3, s*(1-1e-5))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("feasible noticeably below MinSpeed %.8f", s)
	}
	ok, _, err = feas.Feasible(d, 3, s*(1+1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("infeasible just above MinSpeed %.8f", s)
	}
}

func TestCheckTaskSetXScaleCeiling(t *testing.T) {
	// A workload whose minimal speed exceeds the XScale ceiling of
	// 1000 MHz is infeasible there, so any quantized schedule misses.
	heavy := task.MustNew(
		[3]float64{0, 4000, 2}, // needs 2000 MHz alone
	)
	ok, err := feas.CheckTaskSet(heavy, 4, power.IntelXScale().MaxFrequency())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("2000 MHz requirement must be infeasible at 1000 MHz")
	}
	// The paper's standard XScale workloads cap intensity at 400 MHz and
	// are almost always feasible at f_max.
	rng := rand.New(rand.NewSource(31))
	ts := task.MustGenerate(rng, task.XScaleDefaults(10))
	ok, err = feas.CheckTaskSet(ts, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("standard XScale workload should be feasible at f_max on 4 cores")
	}
}

func TestWitnessValidateCatchesCorruption(t *testing.T) {
	ts := task.Fig1Example()
	d := interval.MustDecompose(ts, 0)
	_, w, err := feas.Feasible(d, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	w.X[0][0] = -1
	if err := w.Validate(d, 2); err == nil {
		t.Error("negative assignment should fail validation")
	}
	_, w, _ = feas.Feasible(d, 2, 1.0)
	w.X[0][0] = 1e6
	if err := w.Validate(d, 2); err == nil {
		t.Error("over-length assignment should fail validation")
	}
	_, w, _ = feas.Feasible(d, 2, 1.0)
	w.X[0] = make([]float64, len(w.X[0]))
	if err := w.Validate(d, 2); err == nil {
		t.Error("shortfall should fail validation")
	}
}

func TestInputValidation(t *testing.T) {
	ts := task.Fig1Example()
	d := interval.MustDecompose(ts, 0)
	if _, _, err := feas.Feasible(d, 0, 1); err == nil {
		t.Error("zero cores should fail")
	}
	if _, _, err := feas.Feasible(d, 2, 0); err == nil {
		t.Error("zero speed should fail")
	}
}

func BenchmarkFeasible(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := task.MustGenerate(rng, task.PaperDefaults(30))
	d := interval.MustDecompose(ts, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := feas.Feasible(d, 4, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinSpeed(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := task.MustGenerate(rng, task.PaperDefaults(20))
	d := interval.MustDecompose(ts, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := feas.MinSpeed(d, 4, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMinSpeedDoublingPath(t *testing.T) {
	// For m ≥ 2 the LowerBound's per-window m·len capacity overestimates
	// what a single task can use (it runs on one core at a time), so the
	// bound can be strictly infeasible and MinSpeed must take the
	// doubling + bisection path. Instance: two unit-intensity tasks
	// saturate both cores on [0,10]; a third task τ3 = (0, 30, 30)
	// competes for the leftover capacity 20 − 20/s there (it may hop
	// between cores, but not run on two at once) plus the full [10,30].
	// Binding constraint: 30/s ≤ (20 − 20/s) + 20 → s = 50/40 = 1.25.
	ts := task.MustNew(
		[3]float64{0, 10, 10},
		[3]float64{0, 10, 10},
		[3]float64{0, 30, 30},
	)
	d := interval.MustDecompose(ts, 0)
	lb := feas.LowerBound(d, 2)
	if lb > 1+1e-9 {
		t.Fatalf("lower bound %g unexpectedly tight; test construction broken", lb)
	}
	ok, _, err := feas.Feasible(d, 2, lb)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("lower bound %g should be infeasible here", lb)
	}
	s, w, err := feas.MinSpeed(d, 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(d, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1.25) > 1e-6 {
		t.Errorf("MinSpeed = %.8f, want 1.25", s)
	}
}

func TestCheckTaskSetErrorPropagation(t *testing.T) {
	if _, err := feas.CheckTaskSet(task.Set{}, 2, 1); err == nil {
		t.Error("empty set should fail")
	}
}
