package check_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

func TestRunSafeRecoversPanics(t *testing.T) {
	e := check.Entry{
		Name: "panicky",
		Run: func(context.Context, task.Set, int, power.Model) (*schedule.Schedule, float64, error) {
			panic("boom at subinterval 3")
		},
	}
	ts := task.MustNew([3]float64{0, 1, 2})
	s, energy, err := e.RunSafe(context.Background(), ts, 1, power.Unit(3, 0))
	if s != nil || energy != 0 {
		t.Fatalf("panic produced a result: %v %g", s, energy)
	}
	if !errors.Is(err, check.ErrSolverPanic) {
		t.Fatalf("err = %v, want errors.Is(err, ErrSolverPanic)", err)
	}
	var pe *check.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *check.PanicError", err)
	}
	if pe.Value != "boom at subinterval 3" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload not preserved: %+v", pe)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error message hides the panic value: %v", err)
	}
}

func TestRunSafePassesThroughResults(t *testing.T) {
	ts := task.MustNew([3]float64{0, 1, 2})
	e := check.Entry{
		Name: "fine",
		Run: func(_ context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			s := schedule.New(ts, m)
			s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 0.5})
			return s, s.Energy(pm), nil
		},
	}
	s, energy, err := e.RunSafe(context.Background(), ts, 1, power.Unit(3, 0))
	if err != nil || s == nil || energy <= 0 {
		t.Fatalf("passthrough broken: %v %g %v", s, energy, err)
	}
}

func TestRunVerified(t *testing.T) {
	ts := task.MustNew([3]float64{0, 1, 2})
	pm := power.Unit(3, 0)
	valid := schedule.New(ts, 1)
	valid.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 0.5})
	// Half the required work: a work-conservation violation.
	short := schedule.New(ts, 1)
	short.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 1, Frequency: 0.5})
	reporting := func(s *schedule.Schedule, energy float64) check.Runner {
		return func(context.Context, task.Set, int, power.Model) (*schedule.Schedule, float64, error) {
			return s, energy, nil
		}
	}
	returning := func(s *schedule.Schedule) check.Runner { return reporting(s, s.Energy(pm)) }
	tests := []struct {
		name string
		run  check.Runner
		want error // nil: the runner's own result passes through
		msg  string
	}{
		{"valid", returning(valid), nil, ""},
		{"invalid", returning(short), check.ErrInvalidSchedule, check.Validate(short, ts, 1, pm)[0].Error()},
		// A valid schedule whose runner over-reports its energy by 1%:
		// the energy is served with it, so it is checked too.
		{"over-reported", reporting(valid, 1.01*valid.Energy(pm)), check.ErrInvalidSchedule, "reported energy"},
		{"panic", func(context.Context, task.Set, int, power.Model) (*schedule.Schedule, float64, error) {
			panic("boom")
		}, check.ErrSolverPanic, "boom"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := check.Entry{Name: tt.name, Run: tt.run}
			s, energy, err := e.RunVerified(context.Background(), ts, 1, pm)
			// RunAudited runs the same checks.
			as, aenergy, _, aerr := e.RunAudited(context.Background(), ts, 1, pm)
			if as != s || aenergy != energy || (aerr == nil) != (err == nil) || aerr != nil && aerr.Error() != err.Error() {
				t.Fatalf("RunAudited: %p %g %v; RunVerified: %p %g %v", as, aenergy, aerr, s, energy, err)
			}
			if tt.want == nil {
				if err != nil || s != valid || energy != valid.Energy(pm) {
					t.Fatalf("valid result altered: %p %g %v, want %p %g", s, energy, err, valid, valid.Energy(pm))
				}
				return
			}
			if s != nil || energy != 0 || !errors.Is(err, tt.want) {
				t.Fatalf("got %v %g %v, want errors.Is(err, %v)", s, energy, err, tt.want)
			}
			if !strings.Contains(err.Error(), tt.msg) {
				t.Fatalf("error %q does not name %q", err, tt.msg)
			}
			var pe *check.PanicError
			if isPanic := errors.As(err, &pe); isPanic != (tt.want == check.ErrSolverPanic) {
				t.Fatalf("errors.As(*PanicError) = %v for %v", isPanic, err)
			}
		})
	}
}
