package online

import (
	"context"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// The never-missing online policy self-registers with the universal
// cross-check. FixedSpeedEDF is deliberately left out: it is allowed to
// miss deadlines by design, so the contract the validator enforces does
// not apply to it. The runner builds without the self-check: every
// registry caller audits the schedule it takes, a session replan
// included.
func init() {
	check.Register(check.Entry{
		Name: "ReplanDER",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			r, err := replanDER(ts, m, pm)
			if err != nil {
				return nil, 0, err
			}
			return r.Schedule, r.Energy, nil
		},
	})
}
