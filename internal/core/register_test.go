package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// sameSegments reports whether a and b hold the same segments in the
// same order, comparing every float bit for bit.
func sameSegments(a, b []schedule.Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Task != y.Task || x.Core != y.Core ||
			math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.End) != math.Float64bits(y.End) ||
			math.Float64bits(x.Frequency) != math.Float64bits(y.Frequency) {
			return false
		}
	}
	return true
}

// Each registry runner builds only the schedule it returns; that
// schedule and its energy must be bit-identical to the matching half of
// the full pipeline's Result.
func TestRunnersMatchSchedule(t *testing.T) {
	runners := []struct {
		name   string
		method alloc.Method
		final  bool
	}{
		{"S^I1", alloc.Even, false}, {"S^F1", alloc.Even, true},
		{"S^I2", alloc.DER, false}, {"S^F2", alloc.DER, true},
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 24; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(5+rng.Intn(60)))
		m := 1 + rng.Intn(16)
		pm := power.Unit(2+rng.Float64(), rng.Float64()*0.2)
		for _, r := range runners {
			full, err := Schedule(ts, m, pm, r.method, Options{Tolerance: 1e-9})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, r.name, err)
			}
			want, wantE := full.Intermediate, full.IntermediateEnergy
			if r.final {
				want, wantE = full.Final, full.FinalEnergy
			}
			e, ok := check.Lookup(r.name)
			if !ok {
				t.Fatalf("%s is not registered", r.name)
			}
			got, gotE, err := e.Run(context.Background(), ts, m, pm)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, r.name, err)
			}
			if !sameSegments(got.Segments, want.Segments) {
				t.Errorf("trial %d %s (n=%d, m=%d): schedule differs from Schedule's", trial, r.name, len(ts), m)
			}
			if math.Float64bits(gotE) != math.Float64bits(wantE) {
				t.Errorf("trial %d %s: energy %v, Schedule's %v", trial, r.name, gotE, wantE)
			}
		}
	}
}

// Final and Intermediate each grow their own scratch, so either runs on
// a fresh Solver, and a Solver reused across sizes and entry points
// returns what a fresh one does.
func TestSolverSingleScheduleEntryPoints(t *testing.T) {
	ts := task.SectionVDExample()
	pm := power.Unit(3, 0)
	res, err := NewSolver().Final(ts, 4, pm, alloc.DER, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intermediate != nil {
		t.Error("Final built S^I")
	}
	if got := res.FinalEnergy; math.Abs(got-31.8362) > 5e-4 {
		t.Errorf("E^F2 = %.4f, paper reports 31.8362", got)
	}
	res, err = NewSolver().Intermediate(ts, 4, pm, alloc.Even, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != nil || res.FinalFrequencies != nil {
		t.Error("Intermediate built S^F")
	}

	rng := rand.New(rand.NewSource(7))
	sv := NewSolver()
	for _, n := range []int{3, 80, 10, 120} {
		ts := task.MustGenerate(rng, task.PaperDefaults(n))
		opts := Options{Tolerance: 1e-9}
		full, err := Schedule(ts, 8, pm, alloc.DER, opts)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := sv.Final(ts, 8, pm, alloc.DER, opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		inter, err := sv.Intermediate(ts, 8, pm, alloc.DER, opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sameSegments(fin.Final.Segments, full.Final.Segments) || fin.FinalEnergy != full.FinalEnergy {
			t.Errorf("n=%d: reused Solver's S^F differs from Schedule's", n)
		}
		if !sameSegments(inter.Intermediate.Segments, full.Intermediate.Segments) ||
			inter.IntermediateEnergy != full.IntermediateEnergy {
			t.Errorf("n=%d: reused Solver's S^I differs from Schedule's", n)
		}
	}
}
