package crosscheck

import (
	"context"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// TestSimOracleCatchesWhatAuditForgives feeds the harness a scheduler
// whose only segment starts 5e-7 before its task's release: inside the
// audit's 1e-6 window tolerance, outside the simulator's 1e-9. The
// audit accepts it, so only the sim.Run oracle can report it.
func TestSimOracleCatchesWhatAuditForgives(t *testing.T) {
	ts := task.MustNew([3]float64{1, 2, 5})
	pm := power.Unit(3, 0)
	early := check.Entry{
		Name: "early",
		Run: func(context.Context, task.Set, int, power.Model) (*schedule.Schedule, float64, error) {
			s := schedule.New(ts, 1)
			s.Add(schedule.Segment{Task: 0, Core: 0, Start: 1 - 5e-7, End: 5, Frequency: 0.5})
			return s, s.Energy(pm), nil
		},
	}
	sched, energy, _ := early.Run(context.Background(), ts, 1, pm)
	opts := check.DefaultOptions()
	opts.ReportedEnergy = energy
	if v := check.Audit(sched, ts, 1, pm, opts).Violations; len(v) > 0 {
		t.Fatalf("premise: the audit should accept the early start, got %v", v)
	}

	rep, err := differential(ts, 1, pm, DiffOptions{}.withDefaults(), []check.Entry{early})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("harness accepted a segment that starts before its release:\n%s", rep.Summary())
	}
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "early: sim:") {
		t.Fatalf("want one sim problem naming the scheduler, got %q", rep.Problems)
	}
}
