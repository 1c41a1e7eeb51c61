package schedule

import (
	"math"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/task"
)

// fig2b builds the optimal schedule of the paper's motivational example
// (Fig. 2(b)): three tasks on two cores, x = (8/3, 4/3, 4), y = (8, 4).
// τ1 runs at f = 4/(8+8/3) = 0.375, τ2 at 2/(4+4/3) = 0.375, τ3 at 1.
func fig2b(t *testing.T) *Schedule {
	t.Helper()
	ts := task.Fig1Example()
	s := New(ts, 2)
	f1 := 4.0 / (8 + 8.0/3)
	f2 := 2.0 / (4 + 4.0/3)
	// Lightly loaded prefix/suffix: τ1 on M0 over [0,4] and [8,12],
	// τ2 on M1 over [2,4] and [8,10].
	s.Add(Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: f1})
	s.Add(Segment{Task: 0, Core: 0, Start: 8, End: 12, Frequency: f1})
	s.Add(Segment{Task: 1, Core: 1, Start: 2, End: 4, Frequency: f2})
	s.Add(Segment{Task: 1, Core: 1, Start: 8, End: 10, Frequency: f2})
	// Heavy interval [4,8]: τ3 occupies M0 fully at f=1; τ1 (8/3) and τ2
	// (4/3) share M1.
	s.Add(Segment{Task: 2, Core: 0, Start: 4, End: 8, Frequency: 1})
	s.Add(Segment{Task: 0, Core: 1, Start: 4, End: 4 + 8.0/3, Frequency: f1})
	s.Add(Segment{Task: 1, Core: 1, Start: 4 + 8.0/3, End: 8, Frequency: f2})
	return s
}

func TestSegmentDerived(t *testing.T) {
	seg := Segment{Task: 0, Core: 1, Start: 2, End: 5, Frequency: 0.5}
	if seg.Duration() != 3 {
		t.Errorf("Duration = %g", seg.Duration())
	}
	if seg.Work() != 1.5 {
		t.Errorf("Work = %g", seg.Work())
	}
}

func TestAddDropsEmpty(t *testing.T) {
	s := New(task.Fig1Example(), 2)
	s.Add(Segment{Task: 0, Core: 0, Start: 3, End: 3, Frequency: 1})
	s.Add(Segment{Task: 0, Core: 0, Start: 5, End: 4, Frequency: 1})
	if len(s.Segments) != 0 {
		t.Errorf("empty segments should be dropped, have %d", len(s.Segments))
	}
}

func TestFig2bValid(t *testing.T) {
	s := fig2b(t)
	if errs := s.Validate(1e-9, false); len(errs) != 0 {
		t.Fatalf("Fig 2(b) schedule should be valid: %v", errs)
	}
}

func TestFig2bEnergyMatchesKKT(t *testing.T) {
	// Section II: minimal energy is 64/(8+8/3)² + 8/(4+4/3)² + 64/4²
	// plus the static term 0.01·(x1+x2+x3+y1+y2) = 0.01·20.
	s := fig2b(t)
	m := power.Unit(3, 0.01)
	want := 64/math.Pow(8+8.0/3, 2) + 8/math.Pow(4+4.0/3, 2) + 64.0/16 + 0.01*20
	if got := s.Energy(m); math.Abs(got-want) > 1e-9 {
		t.Errorf("Energy = %.10f, want %.10f", got, want)
	}
	// Cross-check the paper's arithmetic: dynamic-only part is 155/32.
	dynamic := s.Energy(power.Unit(3, 0))
	if math.Abs(dynamic-155.0/32) > 1e-9 {
		t.Errorf("dynamic energy = %.10f, want 155/32 = %.10f", dynamic, 155.0/32)
	}
}

func TestCompletedWork(t *testing.T) {
	s := fig2b(t)
	done := s.CompletedWork()
	want := []float64{4, 2, 4}
	for id, w := range want {
		if math.Abs(done[id]-w) > 1e-9 {
			t.Errorf("task %d completed %g, want %g", id, done[id], w)
		}
	}
}

func TestBusyTimeAndMakespan(t *testing.T) {
	s := fig2b(t)
	if got := s.BusyTime(); math.Abs(got-20) > 1e-9 {
		t.Errorf("BusyTime = %g, want 20", got)
	}
	if got := s.Makespan(); got != 12 {
		t.Errorf("Makespan = %g, want 12", got)
	}
}

func TestValidateDetectsCoreOverlap(t *testing.T) {
	ts := task.Fig1Example()
	s := New(ts, 2)
	s.Add(Segment{Task: 0, Core: 0, Start: 0, End: 6, Frequency: 1})
	s.Add(Segment{Task: 1, Core: 0, Start: 5, End: 8, Frequency: 1})
	errs := s.Validate(1e-9, true)
	if !hasKind(errs, "core-overlap") {
		t.Errorf("expected core-overlap, got %v", errs)
	}
}

func TestValidateDetectsTaskParallelism(t *testing.T) {
	ts := task.Fig1Example()
	s := New(ts, 2)
	// τ1 on both cores simultaneously.
	s.Add(Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(Segment{Task: 0, Core: 1, Start: 2, End: 6, Frequency: 0.5})
	errs := s.Validate(1e-9, true)
	if !hasKind(errs, "task-parallel") {
		t.Errorf("expected task-parallel, got %v", errs)
	}
}

func TestValidateDetectsWindowViolation(t *testing.T) {
	ts := task.Fig1Example()
	s := New(ts, 2)
	// τ3 has window [4,8]; start it at 3.
	s.Add(Segment{Task: 2, Core: 0, Start: 3, End: 7, Frequency: 1})
	errs := s.Validate(1e-9, true)
	if !hasKind(errs, "window") {
		t.Errorf("expected window violation, got %v", errs)
	}
}

func TestValidateDetectsIncompleteWork(t *testing.T) {
	ts := task.Fig1Example()
	s := New(ts, 2)
	s.Add(Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5}) // 2 of 4
	errs := s.Validate(1e-9, true)
	if !hasKind(errs, "work") {
		t.Errorf("expected work violation, got %v", errs)
	}
}

func TestValidateOverwork(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10})
	s := New(ts, 1)
	s.Add(Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 1}) // 10 of 2
	if errs := s.Validate(1e-9, false); !hasKind(errs, "work") {
		t.Errorf("strict mode should flag over-execution, got %v", errs)
	}
	if errs := s.Validate(1e-9, true); hasKind(errs, "work") {
		t.Errorf("allowOverwork should accept over-execution, got %v", errs)
	}
}

func TestValidateDetectsBadReferences(t *testing.T) {
	ts := task.Fig1Example()
	s := New(ts, 2)
	s.Add(Segment{Task: 9, Core: 0, Start: 0, End: 1, Frequency: 1})
	s.Add(Segment{Task: 0, Core: 5, Start: 0, End: 1, Frequency: 1})
	s.Add(Segment{Task: 1, Core: 0, Start: 2, End: 3, Frequency: math.NaN()})
	errs := s.Validate(1e-9, true)
	for _, kind := range []string{"task-range", "core-range", "frequency"} {
		if !hasKind(errs, kind) {
			t.Errorf("expected %s, got %v", kind, errs)
		}
	}
}

func TestTaskFrequencies(t *testing.T) {
	s := fig2b(t)
	freqs := s.TaskFrequencies()
	for id := 0; id < 3; id++ {
		if len(freqs[id]) != 1 {
			t.Errorf("task %d uses %d distinct frequencies, want 1 (Observation 1)", id, len(freqs[id]))
		}
	}
}

func TestGanttRendering(t *testing.T) {
	s := fig2b(t)
	g := s.Gantt(48)
	if !strings.Contains(g, "M0") || !strings.Contains(g, "M1") {
		t.Errorf("Gantt missing core rows:\n%s", g)
	}
	if !strings.Contains(g, "0=τ0") {
		t.Errorf("Gantt missing legend:\n%s", g)
	}
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 4 { // ruler + 2 cores + legend
		t.Errorf("Gantt has %d lines:\n%s", len(lines), g)
	}
}

func TestGanttEmpty(t *testing.T) {
	s := New(task.Fig1Example(), 2)
	if got := s.Gantt(40); !strings.Contains(got, "empty") {
		t.Errorf("empty schedule render: %q", got)
	}
}

func TestDescribe(t *testing.T) {
	s := fig2b(t)
	d := s.Describe()
	for _, frag := range []string{"τ0", "τ1", "τ2", "completed"} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, d)
		}
	}
}

func hasKind(errs []ValidationError, kind string) bool {
	for _, e := range errs {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func BenchmarkValidate(b *testing.B) {
	ts := task.Fig1Example()
	s := New(ts, 2)
	f1 := 4.0 / (8 + 8.0/3)
	f2 := 2.0 / (4 + 4.0/3)
	s.Add(Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: f1})
	s.Add(Segment{Task: 0, Core: 0, Start: 8, End: 12, Frequency: f1})
	s.Add(Segment{Task: 1, Core: 1, Start: 2, End: 4, Frequency: f2})
	s.Add(Segment{Task: 1, Core: 1, Start: 8, End: 10, Frequency: f2})
	s.Add(Segment{Task: 2, Core: 0, Start: 4, End: 8, Frequency: 1})
	s.Add(Segment{Task: 0, Core: 1, Start: 4, End: 4 + 8.0/3, Frequency: f1})
	s.Add(Segment{Task: 1, Core: 1, Start: 4 + 8.0/3, End: 8, Frequency: f2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Validate(1e-9, false)
	}
}
