package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/sim"
	"repro/internal/task"
)

// requireSameProfile checks that the audit's profile of s encodes to the
// same bytes as the simulator's report of s, the reply's old source.
func requireSameProfile(t *testing.T, label string, s *schedule.Schedule, prof check.Profile, pm power.Model) {
	t.Helper()
	rep, err := sim.Run(s, pm)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := json.Marshal(wire.ProfileReport(prof))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wire.SimReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: profile\n%s\nsim.Run\n%s", label, got, want)
	}
}

// profileModels covers the paper's model, p0 = 0, and α ≠ 3 with a
// non-unit γ.
var profileModels = []power.Model{
	power.Unit(3, 0.05),
	power.Unit(3, 0),
	power.Unit(2, 0.1),
	{Gamma: 2, Alpha: 2.5, P0: 0.2},
}

// servedEntries returns the registered schedulers schedd serves,
// without the test doubles this package's tests register.
func servedEntries() []check.Entry {
	var out []check.Entry
	for _, e := range check.Entries() {
		if !strings.HasPrefix(e.Name, "test-") {
			out = append(out, e)
		}
	}
	return out
}

// TestProfileMatchesSim is the property behind every reply's sim field:
// on each schedule a registered scheduler produces and the guardrail
// accepts, the profile the guardrail's audit derives marshals to the
// bytes sim.Run's report does. It covers every registered algorithm,
// paper-default and zoo-regime instances, m = 1..16 and four power
// models.
func TestProfileMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var instances []task.Set
	for _, n := range []int{4, 12, 40, 100} {
		ts, err := task.Generate(rng, task.PaperDefaults(n))
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ts)
	}
	for _, r := range task.Regimes() {
		for _, n := range []int{5, 15} {
			ts, err := task.GenerateRegime(rng, r, n)
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, ts)
		}
	}
	ctx := context.Background()
	checked := 0
	for _, e := range servedEntries() {
		for i, ts := range instances {
			for m := 1; m <= 16; m++ {
				pm := profileModels[(i+m)%len(profileModels)]
				s, _, prof, err := e.RunAudited(ctx, ts, m, pm)
				if err != nil {
					continue // infeasible at this m; nothing is served
				}
				requireSameProfile(t, e.Name, s, prof, pm)
				checked++
			}
		}
	}
	if want := len(servedEntries()) * len(instances) * 8; checked < want {
		t.Fatalf("only %d schedules passed the guardrail, want at least %d", checked, want)
	}
	t.Logf("%d schedules from %d schedulers", checked, len(servedEntries()))
}

// TestProfileEdgeCases pins the cases the profile must size and count
// like sim.Run: YDS's one-core schedule under m > 1, a schedule with
// fewer cores than the audit's m, a single segment, and slivers shorter
// than the sweep's ε, which no slice counts but which still wake a core,
// migrate their task, add busy time and energy, and can end before a
// segment that started earlier.
func TestProfileEdgeCases(t *testing.T) {
	pm := power.Unit(3, 0.05)

	yds, ok := check.Lookup("YDS")
	if !ok {
		t.Fatal("YDS is not registered")
	}
	ts := task.SectionVDExample()
	s, _, prof, err := yds.RunAudited(context.Background(), ts, 4, pm)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cores != 1 || len(prof.CoreBusy) != 1 {
		t.Fatalf("YDS under m=4: schedule has %d cores, profile %d", s.Cores, len(prof.CoreBusy))
	}
	requireSameProfile(t, "YDS m=4", s, prof, pm)

	two := task.MustNew([3]float64{0, 2, 10}, [3]float64{1, 3, 10})
	cases := []struct {
		name  string
		ts    task.Set
		cores int
		m     int
		segs  []schedule.Segment
	}{
		{"single segment", task.MustNew([3]float64{0, 2, 4}), 1, 1, []schedule.Segment{
			{Task: 0, Core: 0, Start: 0.5, End: 2.5, Frequency: 1},
		}},
		{"fewer cores than m", two, 2, 4, []schedule.Segment{
			{Task: 1, Core: 1, Start: 1, End: 2.5, Frequency: 1},
			{Task: 0, Core: 0, Start: 0, End: 1, Frequency: 1},
			{Task: 0, Core: 1, Start: 4, End: 5, Frequency: 1},
			{Task: 1, Core: 0, Start: 3, End: 4.5, Frequency: 1},
		}},
		{"sliver", two, 2, 2, []schedule.Segment{
			{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 1},
			{Task: 0, Core: 1, Start: 2, End: 2 + 5e-10, Frequency: 1},
			{Task: 1, Core: 0, Start: 2, End: 5, Frequency: 1},
		}},
		// The sliver starts after and ends before the segment it
		// overlaps, so the task's segments end in the opposite order to
		// the one they start in: only the end order leaves work behind at
		// the sliver's end and counts a preemption there.
		{"sliver nested in its task's segment", task.MustNew([3]float64{0, 4.9, 10}), 2, 2, []schedule.Segment{
			{Task: 0, Core: 0, Start: 0.1, End: 5, Frequency: 1},
			{Task: 0, Core: 1, Start: 5 - 5e-10, End: 5 - 2e-10, Frequency: 1},
		}},
	}
	for _, c := range cases {
		s := schedule.New(c.ts, c.cores)
		s.Segments = c.segs
		res := check.Audit(s, c.ts, c.m, pm, check.DefaultOptions())
		if !res.OK() {
			t.Fatalf("%s: audit rejects the schedule: %v", c.name, res.Violations)
		}
		if len(res.Profile.CoreBusy) != c.cores {
			t.Fatalf("%s: profile has %d cores, schedule %d", c.name, len(res.Profile.CoreBusy), c.cores)
		}
		requireSameProfile(t, c.name, s, res.Profile, pm)
	}
}

// Only the one-shot path, which serves it, derives the execution
// profile: runSolve without profile (a session re-plan) returns the
// same verified schedule and energy with an empty one.
func TestRunSolveProfileOnlyWhenAsked(t *testing.T) {
	ts, err := task.Generate(rand.New(rand.NewSource(3)), task.PaperDefaults(20))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := check.Lookup("S^F2")
	if !ok {
		t.Fatal("S^F2 is not registered")
	}
	pm := power.Unit(3, 0.05)
	ctx := context.Background()
	with := runSolve(ctx, nil, e, ts, 4, pm, true, func() {})
	without := runSolve(ctx, nil, e, ts, 4, pm, false, func() {})
	if with.err != nil || without.err != nil {
		t.Fatal(with.err, without.err)
	}
	if with.profile.CoreBusy == nil || without.profile.CoreBusy != nil {
		t.Fatalf("profile derived: %v with, %v without", with.profile.CoreBusy != nil, without.profile.CoreBusy != nil)
	}
	if with.energy != without.energy || len(with.sched.Segments) != len(without.sched.Segments) {
		t.Fatalf("energy %v vs %v, %d vs %d segments", with.energy, without.energy, len(with.sched.Segments), len(without.sched.Segments))
	}
	requireSameProfile(t, "S^F2", with.sched, with.profile, pm)
}
