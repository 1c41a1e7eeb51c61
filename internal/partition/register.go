package partition

import (
	"context"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// The non-migratory baseline self-registers with the universal
// cross-check. The runner builds without the self-check: every registry
// caller audits the schedule it takes.
func init() {
	check.Register(check.Entry{
		Name: "Partitioned",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			sched, energy, err := build(ts, m, pm)
			if err != nil {
				return nil, 0, err
			}
			return sched, energy, nil
		},
	})
}
