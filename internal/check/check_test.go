package check_test

// Mutation coverage: five deliberately broken scheduler outputs, one per
// contract clause, each of which the validator must flag with the right
// violation kind. A validator that cannot convict known-broken schedules
// proves nothing about correct ones.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"

	// Every scheduler self-registers on import.
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

func sectionVDFinal(t *testing.T, method alloc.Method) (*core.Result, *schedule.Schedule) {
	t.Helper()
	res, err := core.Schedule(task.SectionVDExample(), 4, power.Unit(3, 0), method, core.Options{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	clone := schedule.New(res.Tasks, res.Cores)
	clone.Segments = append([]schedule.Segment(nil), res.Final.Segments...)
	return res, clone
}

func hasKind(vs []check.Violation, k check.Kind) bool {
	for _, v := range vs {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func TestValidateAcceptsCorrectSchedule(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	if vs := check.Validate(sched, res.Tasks, 4, res.Model); len(vs) > 0 {
		t.Fatalf("validator rejected a correct schedule: %v", vs[0])
	}
	opts := check.DefaultOptions()
	opts.ReportedEnergy = res.FinalEnergy
	audit := check.Audit(sched, res.Tasks, 4, res.Model, opts)
	if !audit.OK() {
		t.Fatalf("audit with reported energy failed: %v", audit.Violations[0])
	}
	if math.Abs(audit.Energy-res.FinalEnergy) > 1e-6*res.FinalEnergy {
		t.Errorf("re-integrated energy %.9f != reported %.9f", audit.Energy, res.FinalEnergy)
	}
	for _, tk := range res.Tasks {
		if w := audit.Work[tk.ID]; math.Abs(w-tk.Work) > 1e-6*tk.Work {
			t.Errorf("task %d re-derived work %.9f != C_i %.9f", tk.ID, w, tk.Work)
		}
	}
}

func TestMutationDroppedWork(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	// Drop every segment of task 3: its work silently vanishes.
	kept := sched.Segments[:0]
	for _, seg := range sched.Segments {
		if seg.Task != 3 {
			kept = append(kept, seg)
		}
	}
	sched.Segments = kept
	vs := check.Validate(sched, res.Tasks, 4, res.Model)
	if !hasKind(vs, check.KindWork) {
		t.Fatalf("dropped work not flagged as %q: %v", check.KindWork, vs)
	}
}

func TestMutationExcessConcurrency(t *testing.T) {
	ts := task.MustNew(
		[3]float64{0, 5, 10},
		[3]float64{0, 5, 10},
		[3]float64{0, 5, 10},
	)
	for _, tc := range []struct {
		name        string
		segs        []schedule.Segment
		concurrency bool
	}{
		{
			// Three tasks simultaneously active on a two-core machine. The
			// third segment reuses an occupied (but in-range) core, so this
			// is both a concurrency and a core-overlap breach — the sweep
			// must see both.
			name: "three on two cores",
			segs: []schedule.Segment{
				{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 0.5},
				{Task: 1, Core: 1, Start: 0, End: 10, Frequency: 0.5},
				{Task: 2, Core: 0, Start: 0, End: 10, Frequency: 0.5},
			},
			concurrency: true,
		},
		{
			// Two tasks share core 0 during [5, 6] while core 1 idles: at
			// most m segments are ever active, so only the per-core clause
			// can catch it.
			name: "shared core within the core count",
			segs: []schedule.Segment{
				{Task: 0, Core: 0, Start: 0, End: 6, Frequency: 5.0 / 6},
				{Task: 1, Core: 0, Start: 5, End: 10, Frequency: 1},
				{Task: 2, Core: 1, Start: 6, End: 10, Frequency: 1.25},
			},
		},
	} {
		sched := schedule.New(ts, 2)
		sched.Segments = tc.segs
		vs := check.Validate(sched, ts, 2, power.Unit(3, 0))
		if hasKind(vs, check.KindConcurrency) != tc.concurrency {
			t.Errorf("%s: %q flagged = %v, want %v: %v", tc.name, check.KindConcurrency, !tc.concurrency, tc.concurrency, vs)
		}
		if !hasKind(vs, check.KindCoreOverlap) {
			t.Errorf("%s: shared core not flagged as %q: %v", tc.name, check.KindCoreOverlap, vs)
		}
	}
}

func TestMutationDeadlineOverrun(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.Even)
	// Stretch the last segment of task 0 past its deadline, slowing it
	// down so the completed work stays C_i — only the window breaks.
	last := -1
	for i, seg := range sched.Segments {
		if seg.Task == 0 && (last < 0 || seg.End > sched.Segments[last].End) {
			last = i
		}
	}
	seg := &sched.Segments[last]
	work := seg.Work()
	seg.End = res.Tasks[0].Deadline + 3
	seg.Frequency = work / seg.Duration()
	vs := check.Validate(sched, res.Tasks, 4, res.Model)
	if !hasKind(vs, check.KindWindow) {
		t.Fatalf("deadline overrun not flagged as %q: %v", check.KindWindow, vs)
	}
}

func TestMutationNegativeFrequency(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	sched.Segments[0].Frequency = -sched.Segments[0].Frequency
	vs := check.Validate(sched, res.Tasks, 4, res.Model)
	if !hasKind(vs, check.KindFrequency) {
		t.Fatalf("negative frequency not flagged as %q: %v", check.KindFrequency, vs)
	}
}

func TestMutationMisintegratedEnergy(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	opts := check.DefaultOptions()
	opts.ReportedEnergy = res.FinalEnergy * 1.05 // a 5% accounting bug
	audit := check.Audit(sched, res.Tasks, 4, res.Model, opts)
	if !hasKind(audit.Violations, check.KindEnergy) {
		t.Fatalf("mis-integrated energy not flagged as %q: %v", check.KindEnergy, audit.Violations)
	}
}

func TestAuditRejectsMalformedSegments(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10})
	sched := schedule.New(ts, 1)
	sched.Segments = []schedule.Segment{
		{Task: 5, Core: 0, Start: 0, End: 4, Frequency: 0.5},        // unknown task
		{Task: 0, Core: 3, Start: 0, End: 4, Frequency: 0.5},        // core out of range
		{Task: 0, Core: 0, Start: 4, End: 4, Frequency: 0.5},        // empty duration
		{Task: 0, Core: 0, Start: 5, End: 6, Frequency: math.NaN()}, // invalid frequency
		{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.25},       // the only real one
	}
	vs := check.Validate(sched, ts, 1, power.Unit(3, 0))
	// Each malformed segment is its own violation, so one bad reference
	// cannot hide another.
	var segs []check.Violation
	for _, v := range vs {
		if v.Kind == check.KindSegment {
			segs = append(segs, v)
		}
	}
	if len(segs) != 3 {
		t.Fatalf("want 3 %q violations (task, core, duration), got %v", check.KindSegment, segs)
	}
	if !hasKind(vs, check.KindFrequency) {
		t.Fatalf("NaN frequency not flagged as %q: %v", check.KindFrequency, vs)
	}
	// The well-formed segment alone completes 1 of 2 units.
	if !hasKind(vs, check.KindWork) {
		t.Fatalf("under-completion not flagged alongside malformed segments: %v", vs)
	}
}

func TestAuditStrictOverwork(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10})
	sched := schedule.New(ts, 1)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 0.5}) // 5 units, C=2
	if vs := check.Validate(sched, ts, 1, power.Unit(3, 0)); len(vs) > 0 {
		t.Fatalf("overwork rejected under default (lenient) options: %v", vs)
	}
	opts := check.DefaultOptions()
	opts.AllowOverwork = false
	audit := check.Audit(sched, ts, 1, power.Unit(3, 0), opts)
	if !hasKind(audit.Violations, check.KindWork) {
		t.Fatalf("overwork not flagged under strict options: %v", audit.Violations)
	}
	// Exact work passes the strict check: the schedulers deliver C_i,
	// not more.
	res, exact := sectionVDFinal(t, alloc.DER)
	if vs := check.Audit(exact, res.Tasks, 4, res.Model, opts).Violations; len(vs) > 0 {
		t.Fatalf("exact-work schedule rejected under strict options: %v", vs[0])
	}
}

func TestMutationTaskParallelism(t *testing.T) {
	// One task on two cores at once: work is conserved, windows hold, but
	// the no-intra-task-parallelism clause breaks.
	ts := task.MustNew([3]float64{0, 4, 10})
	sched := schedule.New(ts, 2)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 0.2})
	sched.Add(schedule.Segment{Task: 0, Core: 1, Start: 0, End: 10, Frequency: 0.2})
	vs := check.Validate(sched, ts, 2, power.Unit(3, 0))
	if !hasKind(vs, check.KindTaskParallel) {
		t.Fatalf("intra-task parallelism not flagged as %q: %v", check.KindTaskParallel, vs)
	}
}

func TestRegistryContainsAllSchedulers(t *testing.T) {
	want := []string{"Partitioned", "ReplanDER", "S^F1", "S^F2", "S^I1", "S^I2", "YDS"}
	got := check.Entries()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("entry %d = %q, want %q (sorted)", i, e.Name, want[i])
		}
	}
}

// TestAuditOverlapOrderDeterministic audits a slice with two core
// overlaps and two parallel tasks. Segment 2 enters the sweep one slice
// before the others, so admission order differs from segment order; the
// offenders must still be reported in segment order, identically on
// every run.
func TestAuditOverlapOrderDeterministic(t *testing.T) {
	ts := task.MustNew([3]float64{0, 1, 10}, [3]float64{0, 1, 10})
	sched := schedule.New(ts, 4)
	sched.Segments = []schedule.Segment{
		{Task: 0, Core: 3, Start: 1, End: 10, Frequency: 0.1},
		{Task: 1, Core: 3, Start: 1, End: 10, Frequency: 0.1},
		{Task: 1, Core: 1, Start: 0, End: 10, Frequency: 0.1},
		{Task: 0, Core: 1, Start: 1, End: 10, Frequency: 0.1},
	}
	want := []check.Violation{
		{Kind: check.KindCoreOverlap, Task: -1, Time: 1, Detail: "core 3 hosts 2 segments during [1, 10]"},
		{Kind: check.KindCoreOverlap, Task: -1, Time: 1, Detail: "core 1 hosts 2 segments during [1, 10]"},
		{Kind: check.KindTaskParallel, Task: 0, Time: 1, Detail: "task runs on 2 cores during [1, 10]"},
		{Kind: check.KindTaskParallel, Task: 1, Time: 1, Detail: "task runs on 2 cores during [1, 10]"},
	}
	for run := 0; run < 50; run++ {
		vs := check.Validate(sched, ts, 4, power.Unit(3, 0))
		if !reflect.DeepEqual(vs, want) {
			t.Fatalf("run %d: violations %v, want %v", run, vs, want)
		}
	}
}
