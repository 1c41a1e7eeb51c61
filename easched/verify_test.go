package easched_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/easched"
	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// misbehave switches the registered test-panic and test-overlap runners
// on. Off, both return S^F2's schedule, so the package's full-registry
// conformance matrix stays clean.
var misbehave atomic.Bool

func init() {
	sf2 := func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
		e, _ := check.Lookup("S^F2")
		return e.Run(ctx, ts, m, pm)
	}
	check.Register(check.Entry{
		Name: "test-panic",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			if misbehave.Load() {
				panic("test-panic")
			}
			return sf2(ctx, ts, m, pm)
		},
	})
	check.Register(check.Entry{
		Name: "test-overlap",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			s, energy, err := sf2(ctx, ts, m, pm)
			if err == nil && misbehave.Load() {
				// Every segment twice: each core and task overlaps itself.
				s.Segments = append(s.Segments, s.Segments...)
			}
			return s, energy, err
		},
	})
}

func TestRunAlgorithmVerifies(t *testing.T) {
	spec := sectionVDSpec(t)
	misbehave.Store(true)
	defer misbehave.Store(false)
	for name, want := range map[string]error{
		"test-panic":   easched.ErrSolverPanic,
		"test-overlap": easched.ErrInvalidSchedule,
	} {
		s, energy, err := easched.RunAlgorithm(context.Background(), name, spec.Tasks, spec.Cores, spec.Model)
		if s != nil || energy != 0 || !errors.Is(err, want) {
			t.Errorf("%s: got %v %g %v, want errors.Is(err, %v)", name, s, energy, err, want)
		}
	}
}
