package core

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// The four schedulers of Section V self-register with the universal
// cross-check; any test or tool that imports this package gets them
// audited by check.Differential automatically. They skip Schedule's own
// feasibility check: every registry caller validates the one schedule
// it takes (check.Entry.RunVerified, or Differential's audit).
func init() {
	run := func(method alloc.Method, final bool) check.Runner {
		return func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			res, err := Schedule(ts, m, pm, method, Options{Tolerance: 1e-9, Context: ctx, SkipValidation: true})
			if err != nil {
				return nil, 0, err
			}
			if final {
				return res.Final, res.FinalEnergy, nil
			}
			return res.Intermediate, res.IntermediateEnergy, nil
		}
	}
	check.Register(check.Entry{Name: "S^I1", Run: run(alloc.Even, false)})
	check.Register(check.Entry{Name: "S^F1", Run: run(alloc.Even, true)})
	check.Register(check.Entry{Name: "S^I2", Run: run(alloc.DER, false)})
	check.Register(check.Entry{Name: "S^F2", Run: run(alloc.DER, true)})
}
