package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// TestSolverAllocRegression pins the PR-4 hot-path work: a warmed-up
// Solver must run the full validated DER pipeline on the n=100, m=16
// acceptance instance within a small allocation ceiling (pre-PR code
// spent ~11k allocs/op here; the Solver spends ~50, almost all of it
// the escaping Result).
func TestSolverAllocRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(20140901))
	ts, err := task.Generate(rng, task.PaperDefaults(100))
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	sv := NewSolver()
	if _, err := sv.Schedule(ts, 16, pm, alloc.DER, Options{Tolerance: 1e-9}); err != nil {
		t.Fatal(err) // warm the scratch arenas
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := sv.Schedule(ts, 16, pm, alloc.DER, Options{Tolerance: 1e-9}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 200 {
		t.Fatalf("warmed Solver.Schedule(DER, n=100, m=16) allocates %.0f/op, ceiling 200", avg)
	}
}

// TestAppendFinalAllocs pins AppendFinal's contract: a warmed Solver
// builds S^F of the n=100, m=16 acceptance instance into a reused
// buffer without allocating, segment for segment as Final builds it.
func TestAppendFinalAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20140901))
	ts, err := task.Generate(rng, task.PaperDefaults(100))
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	opts := Options{Tolerance: 1e-9, SkipValidation: true}
	want, err := Schedule(ts, 16, pm, alloc.DER, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSolver()
	segs, _, err := sv.AppendFinal(nil, ts, 16, pm, alloc.DER, opts)
	if err != nil {
		t.Fatal(err)
	}
	var energy float64
	avg := testing.AllocsPerRun(5, func() {
		if segs, energy, err = sv.AppendFinal(segs[:0], ts, 16, pm, alloc.DER, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("warmed Solver.AppendFinal(DER, n=100, m=16) allocates %.0f/op, want 0", avg)
	}
	if !sameSegments(segs, want.Final.Segments) || energy != want.FinalEnergy {
		t.Error("AppendFinal's segments or energy differ from Final's")
	}
}

// TestRecycledRunnerAllocs pins the registry runners' half of the
// handoff rule (check.Runner): a warmed S^F2 runner whose caller
// recycles each schedule it gets solves the n=100, m=16 acceptance
// instance in a pooled Solver and a recycled schedule, allocating close
// to nothing. Skipped under -race, which drops pooled entries at random.
func TestRecycledRunnerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries")
	}
	rng := rand.New(rand.NewSource(20140901))
	ts, err := task.Generate(rng, task.PaperDefaults(100))
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	e, ok := check.Lookup("S^F2")
	if !ok {
		t.Fatal("S^F2 is not registered")
	}
	run := func() *schedule.Schedule {
		s, _, err := e.Run(context.Background(), ts, 16, pm)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := slices.Clone(run().Segments)
	var got []schedule.Segment
	avg := testing.AllocsPerRun(10, func() {
		s := run()
		got = append(got[:0], s.Segments...)
		schedule.Recycle(s)
	})
	if avg > 2 {
		t.Errorf("a warmed, recycled S^F2 run (n=100, m=16) allocates %.1f/op, ceiling 2", avg)
	}
	if !sameSegments(got, want) {
		t.Error("a recycled S^F2 run builds other segments than a fresh one")
	}
}
