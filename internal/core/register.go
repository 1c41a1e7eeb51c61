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
// audited by crosscheck.Differential automatically. Each builds only the
// schedule it returns (S^I runners call Solver.AppendIntermediate, S^F
// runners Solver.AppendFinal) on a pooled Solver, into a schedule from
// schedule.Reuse, so a caller that recycles the schedules it is done
// with (check.Runner) solves without allocating; only a schedule that
// is kept costs its segments. They skip the solver's own feasibility
// check: every registry caller validates the one schedule it takes
// (check.Entry.RunVerified, or Differential's audit).
func init() {
	run := func(method alloc.Method, final bool) check.Runner {
		build := (*Solver).AppendIntermediate
		if final {
			build = (*Solver).AppendFinal
		}
		return func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			out := schedule.Reuse(ts, m)
			sv := GetSolver()
			segs, energy, err := build(sv, out.Segments, ts, m, pm, method,
				Options{Tolerance: 1e-9, Context: ctx, SkipValidation: true})
			PutSolver(sv)
			if err != nil {
				schedule.Recycle(out)
				return nil, 0, err
			}
			out.Segments = segs
			return out, energy, nil
		}
	}
	check.Register(check.Entry{Name: "S^I1", Run: run(alloc.Even, false)})
	check.Register(check.Entry{Name: "S^F1", Run: run(alloc.Even, true)})
	check.Register(check.Entry{Name: "S^I2", Run: run(alloc.DER, false)})
	check.Register(check.Entry{Name: "S^F2", Run: run(alloc.DER, true)})
}
