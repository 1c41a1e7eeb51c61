package metamorphic

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// overlapping switches the registered test-overlap runner on. Off, it
// returns S^F2's schedule, so the package's full-registry suites stay
// clean.
var overlapping atomic.Bool

func init() {
	check.Register(check.Entry{
		Name: "test-overlap",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			e, _ := check.Lookup("S^F2")
			s, energy, err := e.Run(ctx, ts, m, pm)
			if err == nil && overlapping.Load() {
				// Every segment twice: each core and task overlaps itself.
				s.Segments = append(s.Segments, s.Segments...)
			}
			return s, energy, err
		},
	})
}

func TestEvalRecordsInvalidSchedule(t *testing.T) {
	overlapping.Store(true)
	defer overlapping.Store(false)
	inst := Instance{Tasks: task.SectionVDExample(), Cores: 4, Model: power.Unit(3, 0)}
	o := quickOpts()
	o.Schedulers = []string{"test-overlap"}
	o.SkipOptimum = true
	out, err := Eval(context.Background(), inst, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Errs["test-overlap"]; !errors.Is(err, check.ErrInvalidSchedule) {
		t.Fatalf("Errs[test-overlap] = %v, want errors.Is(err, ErrInvalidSchedule)", err)
	}
	if e, scored := out.Energy["test-overlap"]; scored {
		t.Fatalf("invalid schedule scored with energy %g", e)
	}
}
