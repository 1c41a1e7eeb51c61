package yds

import (
	"context"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// YDS self-registers with the universal cross-check. It always realizes
// on a single core, which stays valid (and above the multi-core lower
// bound) for any m ≥ 1. The runner builds without the self-check: every
// registry caller audits the schedule it takes.
func init() {
	check.Register(check.Entry{
		Name: "YDS",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			sched, _, err := Build(ts)
			if err != nil {
				return nil, 0, err
			}
			return sched, sched.Energy(pm), nil
		},
	})
}
