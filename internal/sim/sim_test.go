package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

func TestSimpleExecution(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 8, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	want := (math.Pow(0.5, 3) + 0.01) * 8
	if math.Abs(rep.Energy-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", rep.Energy, want)
	}
	if math.Abs(rep.Completion[0]-8) > 1e-9 {
		t.Errorf("completion = %g, want 8", rep.Completion[0])
	}
	if rep.Preemptions != 0 || rep.Migrations != 0 {
		t.Errorf("preemptions=%d migrations=%d, want 0/0", rep.Preemptions, rep.Migrations)
	}
	// Horizon is the segment span [0, 8], fully busy.
	if math.Abs(rep.Utilization[0]-1) > 1e-9 {
		t.Errorf("utilization = %g, want 1", rep.Utilization[0])
	}
	if math.Abs(rep.Horizon-8) > 1e-9 {
		t.Errorf("horizon = %g, want 8", rep.Horizon)
	}
}

func TestCompletionInterpolation(t *testing.T) {
	// Task finishes mid-segment: 4 work at f=1 inside a 6-long segment is
	// impossible per-validation, so split: the completion must
	// interpolate inside the last segment.
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 1})
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 5, End: 9, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Remaining 2 work at 0.5 takes 4 time from t=5 → completes at 9.
	if math.Abs(rep.Completion[0]-9) > 1e-9 {
		t.Errorf("completion = %g, want 9", rep.Completion[0])
	}
	if rep.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", rep.Preemptions)
	}
}

func TestMigrationCount(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 2)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 1, Start: 4, End: 8, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", rep.Migrations)
	}
}

func TestDetectsCoreConflict(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10}, [3]float64{0, 2, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 1, Core: 0, Start: 2, End: 6, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !containsSubstr(rep.Violations, "busy") {
		t.Errorf("expected core conflict, got %v", rep.Violations)
	}
}

func TestDetectsIntraTaskParallelism(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 2)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 1, Start: 2, End: 6, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !containsSubstr(rep.Violations, "already running") {
		t.Errorf("expected intra-task parallelism violation, got %v", rep.Violations)
	}
}

func TestDetectsDeadlineAndReleaseViolations(t *testing.T) {
	ts := task.MustNew([3]float64{2, 2, 6})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 1, End: 7, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !containsSubstr(rep.Violations, "before release") {
		t.Errorf("expected release violation, got %v", rep.Violations)
	}
	if !containsSubstr(rep.Violations, "past deadline") {
		t.Errorf("expected deadline violation, got %v", rep.Violations)
	}
}

func TestDetectsShortfall(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 1}) // 2 of 4
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !containsSubstr(rep.Violations, "remaining") {
		t.Errorf("expected shortfall, got %v", rep.Violations)
	}
	if !math.IsNaN(rep.Completion[0]) {
		t.Errorf("incomplete task must have NaN completion, got %g", rep.Completion[0])
	}
}

func TestEmptySchedule(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	rep, err := Run(schedule.New(ts, 1), power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("empty schedule should report never-executed tasks")
	}
}

func TestBackToBackSegmentsNoConflict(t *testing.T) {
	// τ ends at t=4 exactly when the next task starts on the same core:
	// no conflict thanks to end-before-start event ordering.
	ts := task.MustNew([3]float64{0, 2, 10}, [3]float64{0, 3, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 1, Core: 0, Start: 4, End: 10, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("back-to-back segments flagged: %v", rep.Violations)
	}
}

func TestSimulatorAgreesWithAnalyticEnergy(t *testing.T) {
	// The simulator's integrated energy must match Schedule.Energy and
	// core.Result's closed forms on real scheduler output.
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(15))
		pm := power.Unit(3, 0.1)
		for _, method := range []alloc.Method{alloc.Even, alloc.DER} {
			res := core.MustSchedule(ts, 4, pm, method, core.Options{})
			for _, sched := range []*schedule.Schedule{res.Intermediate, res.Final} {
				rep, err := Run(sched, pm)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("trial %d %v: %v", trial, method, rep.Violations)
				}
				want := sched.Energy(pm)
				if math.Abs(rep.Energy-want) > 1e-6*math.Max(1, want) {
					t.Errorf("sim energy %g != analytic %g", rep.Energy, want)
				}
			}
		}
	}
}

func TestCompletionsBeforeDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	ts := task.MustGenerate(rng, task.PaperDefaults(20))
	pm := power.Unit(3, 0.05)
	res := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{})
	rep, err := Run(res.Final, pm)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.Completion {
		if math.IsNaN(c) {
			t.Errorf("task %d never completed", i)
			continue
		}
		if c > ts[i].Deadline+1e-6 {
			t.Errorf("task %d completed at %g after deadline %g", i, c, ts[i].Deadline)
		}
	}
}

func TestRunValidatesModel(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	if _, err := Run(schedule.New(ts, 1), power.Unit(1, 0)); err == nil {
		t.Error("invalid model should fail")
	}
}

func containsSubstr(hay []string, needle string) bool {
	for _, h := range hay {
		if strings.Contains(h, needle) {
			return true
		}
	}
	return false
}

func BenchmarkRun(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := task.MustGenerate(rng, task.PaperDefaults(30))
	pm := power.Unit(3, 0.1)
	res := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(res.Final, pm); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWakeupCounting(t *testing.T) {
	ts := task.MustNew(
		[3]float64{0, 2, 20},
		[3]float64{0, 2, 20},
	)
	s := schedule.New(ts, 2)
	// Core 0: two segments with an idle gap → 2 wakeups.
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 5, End: 7, Frequency: 0.5})
	// Core 1: two back-to-back segments → 1 wakeup.
	s.Add(schedule.Segment{Task: 1, Core: 1, Start: 0, End: 2, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 1, Core: 1, Start: 2, End: 4, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wakeups != 3 {
		t.Errorf("wakeups = %d, want 3", rep.Wakeups)
	}
	base := rep.Energy
	if got := rep.EnergyWithWakeups(0.5); math.Abs(got-(base+1.5)) > 1e-12 {
		t.Errorf("EnergyWithWakeups = %g, want %g", got, base+1.5)
	}
}

func TestWakeupsAtLeastCoresUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ts := task.MustGenerate(rng, task.PaperDefaults(15))
	pm := power.Unit(3, 0.05)
	res := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{})
	rep, err := Run(res.Final, pm)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, seg := range res.Final.Segments {
		used[seg.Core] = true
	}
	if rep.Wakeups < len(used) {
		t.Errorf("wakeups %d below cores used %d", rep.Wakeups, len(used))
	}
}

func TestResponseTimes(t *testing.T) {
	ts := task.MustNew([3]float64{2, 4, 12})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 3, End: 11, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	rt := rep.ResponseTimes([]float64{2})
	if math.Abs(rt[0]-9) > 1e-9 {
		t.Errorf("response time = %g, want 9 (completed at 11, released at 2)", rt[0])
	}
	// Missing release info yields NaN.
	rt = rep.ResponseTimes(nil)
	if !math.IsNaN(rt[0]) {
		t.Errorf("expected NaN without release data, got %g", rt[0])
	}
}

// refQueue drives eventNodes through container/heap, the queue Run used
// before its typed heap.
type refQueue []eventNode

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return eventQueue(q).less(i, j) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(eventNode)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestEventQueueMatchesContainerHeap pops random events with many
// (t, kind) ties through both heaps; ties are told apart by idx, so the
// pop sequences must agree element for element.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		evs := make([]eventNode, rng.Intn(200))
		for i := range evs {
			evs[i] = eventNode{t: float64(rng.Intn(6)), idx: int32(i), kind: eventKind(rng.Intn(2))}
		}
		q := append(eventQueue(nil), evs...)
		ref := append(refQueue(nil), evs...)
		q.init()
		heap.Init(&ref)
		for i := 0; len(q) > 0; i++ {
			got, want := q.pop(), heap.Pop(&ref).(eventNode)
			if got != want {
				t.Fatalf("trial %d pop %d: got %+v, container/heap %+v", trial, i, got, want)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: container/heap has %d events left", trial, len(ref))
		}
	}
}

// TestRunMatchesRecordedSectionVD replays the Section V.D S^F1 and S^F2
// schedules and compares the reports with ones recorded from the
// container/heap simulator.
func TestRunMatchesRecordedSectionVD(t *testing.T) {
	recorded := []struct {
		method alloc.Method
		want   Report
	}{
		{alloc.Even, Report{
			Energy: 33.064176187300625, Horizon: 22,
			CoreBusy:    []float64{22, 18, 14, 10},
			Utilization: []float64{1, 0.8181818181818182, 0.6363636363636364, 0.45454545454545453},
			Completion:  []float64{9.6, 17.999999999999996, 15.999999999999996, 14, 20, 22},
			Preemptions: 34, Migrations: 12, Wakeups: 4,
		}},
		{alloc.DER, Report{
			Energy: 31.836176466133516, Horizon: 22,
			CoreBusy:    []float64{22, 18, 14, 9.999999999999998},
			Utilization: []float64{1, 0.8181818181818182, 0.6363636363636364, 0.4545454545454545},
			Completion:  []float64{9.741496598639456, 18.000000000000004, 15.999999999999998, 14.000000000000002, 20, 22},
			Preemptions: 33, Migrations: 10, Wakeups: 4,
		}},
	}
	pm := power.Unit(3, 0)
	for _, r := range recorded {
		res := core.MustSchedule(task.SectionVDExample(), 4, pm, r.method, core.Options{})
		rep, err := Run(res.Final, pm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rep, r.want) {
			t.Errorf("%v: report %+v, recorded %+v", r.method, *rep, r.want)
		}
	}
}
