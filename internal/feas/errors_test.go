package feas

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/task"
)

// In-package error-path coverage. This file must not import scheduler
// packages (core, yds, ...): they register with internal/check, which
// imports feas, and that loop is an import cycle inside feas's tests.

func TestFeasibleRejectsBadArguments(t *testing.T) {
	d := interval.MustDecompose(task.Fig1Example(), 0)
	cases := []struct {
		name  string
		m     int
		speed float64
		want  string
	}{
		{"zero cores", 0, 1, "core"},
		{"negative cores", -3, 1, "core"},
		{"zero speed", 2, 0, "speed"},
		{"negative speed", 2, -1, "speed"},
		{"NaN speed", 2, math.NaN(), "speed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, w, err := Feasible(d, c.m, c.speed)
			if err == nil {
				t.Fatal("expected an error")
			}
			if w != nil {
				t.Error("witness must be nil on error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestInfeasibleSpeedReturnsFalseWithoutWitness(t *testing.T) {
	// Fig. 1's interval [4,8] has intensity 1 on one core, so 0.5 is
	// cleanly infeasible — not an error, just a negative answer.
	d := interval.MustDecompose(task.Fig1Example(), 0)
	ok, w, err := Feasible(d, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("speed 0.5 must be infeasible")
	}
	if w != nil {
		t.Error("no witness should accompany an infeasible verdict")
	}
}

func TestMinSpeedDefaultsNonPositiveTolerance(t *testing.T) {
	d := interval.MustDecompose(task.Fig1Example(), 0)
	s, w, err := MinSpeed(d, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-6 {
		t.Errorf("MinSpeed = %g, want 1 (Fig. 1 peak intensity)", s)
	}
	if w == nil {
		t.Fatal("MinSpeed must return a witness")
	}
	if err := w.Validate(d, 1); err != nil {
		t.Errorf("witness invalid: %v", err)
	}
}

func TestWitnessValidateRejectsShortfallPerTask(t *testing.T) {
	d := interval.MustDecompose(task.Fig1Example(), 0)
	_, w, err := Feasible(d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out one task's assignments: its work is no longer covered.
	for k := range w.X[1] {
		w.X[1][k] = 0
	}
	err = w.Validate(d, 2)
	if err == nil {
		t.Fatal("shortfall must fail validation")
	}
	if !strings.Contains(err.Error(), "task 1") {
		t.Errorf("error %q does not name the starved task", err)
	}
}

func TestWitnessValidateRejectsOverCapacity(t *testing.T) {
	ts := task.MustNew(
		[3]float64{0, 2, 4},
		[3]float64{0, 2, 4},
		[3]float64{0, 2, 4},
	)
	d := interval.MustDecompose(ts, 0)
	_, w, err := Feasible(d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate every assignment beyond the m=1 capacity of the single
	// subinterval while staying within each edge's own length bound.
	for i := range w.X {
		for k := range w.X[i] {
			w.X[i][k] = 4
		}
	}
	if err := w.Validate(d, 1); err == nil {
		t.Error("aggregate over-capacity must fail validation")
	}
}

func TestCheckTaskSetRejectsBadSets(t *testing.T) {
	if _, err := CheckTaskSet(task.Set{}, 2, 1); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := CheckTaskSet(task.Fig1Example(), 0, 1); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := CheckTaskSet(task.Fig1Example(), 2, 0); err == nil {
		t.Error("zero ceiling should fail")
	}
}
