package check

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
)

// naiveSweep is the original all-pairs sweep: for every elementary
// slice it rescans every segment. It is O(slices·segments) and reports
// overlap offenders in map order, but it is the direct transcription of
// the contract, so sweepAudit must reproduce its energy, busy time and
// work bit for bit and its violations as a multiset.
func naiveSweep(segs []schedule.Segment, ts task.Set, m int, pm power.Model, opts Options,
	res *Result, add func(Kind, int, float64, string, ...any)) {
	if len(segs) == 0 {
		return
	}
	pts := make([]float64, 0, 2*len(segs))
	for _, seg := range segs {
		pts = append(pts, seg.Start, seg.End)
	}
	sort.Float64s(pts)
	uniq := pts[:0]
	for _, p := range pts {
		if len(uniq) == 0 || p > uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}

	var energy, busy numeric.KahanSum
	work := make(map[int]*numeric.KahanSum, len(ts))
	// Violations are reported once per offender, at the first offending
	// slice, rather than once per slice — a long overlap is one bug.
	conReported := false
	coreReported := make(map[int]bool)
	taskReported := make(map[int]bool)

	for k := 0; k+1 < len(uniq); k++ {
		lo, hi := uniq[k], uniq[k+1]
		dt := hi - lo
		if dt <= opts.Tol*1e-3 {
			// Slivers below the tolerance floor carry no measurable work
			// or energy and only amplify float noise.
			continue
		}
		var active []schedule.Segment
		for _, seg := range segs {
			if seg.Start <= lo+opts.Tol*1e-3 && seg.End >= hi-opts.Tol*1e-3 {
				active = append(active, seg)
			}
		}
		if len(active) > m && !conReported {
			add(KindConcurrency, -1, lo, "%d segments active during [%g, %g] on %d cores", len(active), lo, hi, m)
			conReported = true
		}
		perCore := make(map[int]int, len(active))
		perTask := make(map[int]int, len(active))
		for _, seg := range active {
			perCore[seg.Core]++
			perTask[seg.Task]++
			energy.Add(pm.Power(seg.Frequency) * dt)
			busy.Add(dt)
			w, ok := work[seg.Task]
			if !ok {
				w = &numeric.KahanSum{}
				work[seg.Task] = w
			}
			w.Add(seg.Frequency * dt)
		}
		for c, cnt := range perCore {
			if cnt > 1 && !coreReported[c] {
				add(KindCoreOverlap, -1, lo, "core %d hosts %d segments during [%g, %g]", c, cnt, lo, hi)
				coreReported[c] = true
			}
		}
		for id, cnt := range perTask {
			if cnt > 1 && !taskReported[id] {
				add(KindTaskParallel, id, lo, "task runs on %d cores during [%g, %g]", cnt, lo, hi)
				taskReported[id] = true
			}
		}
	}
	res.Energy = energy.Value()
	res.BusyTime = busy.Value()
	for id, w := range work {
		res.Work[id] = w.Value()
	}
}

// refRuns is the boundary pass refSliceRuns computes: the distinct
// boundaries and each segment's run of slices [first[i], stop[i]).
type refRuns struct {
	eps         float64
	uniq        []float64
	first, stop []int
}

// refSliceRuns is the original boundary pass: sort every Start and End,
// drop repeats, and find each segment's run by two binary searches.
// findRuns must return the same uniq, first and stop.
func refSliceRuns(segs []schedule.Segment, eps float64) refRuns {
	if len(segs) == 0 {
		return refRuns{eps: eps}
	}
	pts := make([]float64, 0, 2*len(segs))
	for _, seg := range segs {
		pts = append(pts, seg.Start, seg.End)
	}
	sort.Float64s(pts)
	uniq := pts[:0]
	for _, p := range pts {
		if len(uniq) == 0 || p > uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	r := refRuns{eps: eps, uniq: uniq, first: make([]int, len(segs)), stop: make([]int, len(segs))}
	slices := len(uniq) - 1
	// stop negates the activity test rather than flipping its
	// comparison, so the two agree exactly on every float input.
	for i, seg := range segs {
		r.first[i] = sort.Search(slices, func(k int) bool { return seg.Start <= uniq[k]+eps })
		r.stop[i] = sort.Search(slices, func(k int) bool { return !(seg.End >= uniq[k+1]-eps) })
	}
	return r
}

// compareWithRef checks findRuns against refSliceRuns on well-formed
// segments of cores 0..m−1: the same boundaries, a zero held as +0, the
// same runs, and exact Start and End ranks.
func compareWithRef(t *testing.T, segs []schedule.Segment, m int, eps float64) {
	t.Helper()
	got, want := new(scratch).findRuns(segs, m, eps), refSliceRuns(segs, eps)
	if len(got.uniq) != len(want.uniq) {
		t.Fatalf("%d boundaries, reference %d (segments %v)", len(got.uniq), len(want.uniq), segs)
	}
	for k, u := range got.uniq {
		if u != want.uniq[k] || math.Signbit(u) && u == 0 {
			t.Fatalf("boundary %d is %v, reference %v (segments %v)", k, u, want.uniq[k], segs)
		}
	}
	for i, seg := range segs {
		if int(got.first[i]) != want.first[i] || int(got.stop[i]) != want.stop[i] {
			t.Fatalf("segment %d runs over [%d, %d), reference [%d, %d) (segments %v)",
				i, got.first[i], got.stop[i], want.first[i], want.stop[i], segs)
		}
		if got.uniq[got.start[i]] != seg.Start || got.uniq[got.end[i]] != seg.End {
			t.Fatalf("segment %d ranks %d, %d do not hold %v (segments %v)", i, got.start[i], got.end[i], seg, segs)
		}
	}
}

// sweepKinds are the violation kinds only the sweep reports.
var sweepKinds = map[Kind]bool{KindConcurrency: true, KindCoreOverlap: true, KindTaskParallel: true}

// wellFormed mirrors Audit's structural pass: the segments it lets
// through to the sweep.
func wellFormed(seg schedule.Segment, n, m int) bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return seg.Task >= 0 && seg.Task < n && seg.Core >= 0 && seg.Core < m &&
		seg.End > seg.Start && finite(seg.Start) && finite(seg.End) &&
		seg.Frequency > 0 && finite(seg.Frequency)
}

func violationKeys(vs []Violation) []string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = fmt.Sprintf("%s|%d|%x|%s", v.Kind, v.Task, math.Float64bits(v.Time), v.Detail)
	}
	sort.Strings(keys)
	return keys
}

// compareWithNaive audits segs and checks that the sweep's outputs match
// naiveSweep run over the segments Audit's structural pass keeps, and
// that the boundary pass matches refSliceRuns on them.
func compareWithNaive(t *testing.T, segs []schedule.Segment, ts task.Set, m int, opts Options) {
	t.Helper()
	pm := power.Unit(3, 0.05)
	s := schedule.New(ts, m)
	s.Segments = segs
	got := Audit(s, ts, m, pm, opts)
	compareWithSim(t, s, pm, got)

	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	want := &Result{Work: make(map[int]float64, len(ts))}
	add := func(kind Kind, taskID int, tm float64, format string, args ...any) {
		want.Violations = append(want.Violations, Violation{
			Kind: kind, Task: taskID, Time: tm, Detail: fmt.Sprintf(format, args...),
		})
	}
	var kept []schedule.Segment
	for _, seg := range segs {
		if wellFormed(seg, len(ts), m) {
			kept = append(kept, seg)
		}
	}
	naiveSweep(kept, ts, m, pm, opts, want, add)
	compareWithRef(t, kept, m, opts.Tol*1e-3)

	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
		t.Fatalf("energy %v, naive %v (segments %v)", got.Energy, want.Energy, segs)
	}
	if math.Float64bits(got.BusyTime) != math.Float64bits(want.BusyTime) {
		t.Fatalf("busy time %v, naive %v (segments %v)", got.BusyTime, want.BusyTime, segs)
	}
	if len(got.Work) != len(want.Work) {
		t.Fatalf("work %v, naive %v (segments %v)", got.Work, want.Work, segs)
	}
	for id, w := range want.Work {
		if g, ok := got.Work[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("work[%d] %v, naive %v (segments %v)", id, g, w, segs)
		}
	}
	var gotSweep []Violation
	for _, v := range got.Violations {
		if sweepKinds[v.Kind] {
			gotSweep = append(gotSweep, v)
		}
	}
	gk, wk := violationKeys(gotSweep), violationKeys(want.Violations)
	if fmt.Sprint(gk) != fmt.Sprint(wk) {
		t.Fatalf("violations %v, naive %v (segments %v)", gk, wk, segs)
	}
}

// simTies reports whether two segments of one core, or of one task,
// start at the same instant or end at the same instant. sim.Run pops
// such events in the order of its heap's layout, and that order decides
// its wake-up, migration, busy-time and preemption figures, so no pass
// over the segments reproduces them; the profile takes tied segments in
// segment order.
func simTies(segs []schedule.Segment) bool {
	type event struct {
		byTask, end bool
		id          int
		t           float64
	}
	seen := make(map[event]bool, 4*len(segs))
	for _, seg := range segs {
		for _, ev := range []event{
			{false, false, seg.Core, seg.Start}, {false, true, seg.Core, seg.End},
			{true, false, seg.Task, seg.Start}, {true, true, seg.Task, seg.End},
		} {
			if seen[ev] {
				return true
			}
			seen[ev] = true
		}
	}
	return false
}

// compareWithSim checks that an audit which found no violations carries
// sim.Run's execution profile of the same schedule, bit for bit, unless
// simTies leaves sim.Run's figures to its heap layout.
func compareWithSim(t *testing.T, s *schedule.Schedule, pm power.Model, got *Result) {
	t.Helper()
	if !got.OK() || simTies(s.Segments) {
		return
	}
	rep, err := sim.Run(s, pm)
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{
		Energy: rep.Energy, Horizon: rep.Horizon, CoreBusy: rep.CoreBusy, Utilization: rep.Utilization,
		Preemptions: rep.Preemptions, Migrations: rep.Migrations, Wakeups: rep.Wakeups,
	}
	if d := profileDiff(got.Profile, want); d != "" {
		t.Fatalf("profile %s (segments %v)", d, s.Segments)
	}
}

// profileDiff names the first field where two profiles differ, floats
// compared bit for bit, or returns "".
func profileDiff(got, want Profile) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameAll := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !same(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case !same(got.Energy, want.Energy):
		return fmt.Sprintf("energy %v, sim %v", got.Energy, want.Energy)
	case !same(got.Horizon, want.Horizon):
		return fmt.Sprintf("horizon %v, sim %v", got.Horizon, want.Horizon)
	case !sameAll(got.CoreBusy, want.CoreBusy):
		return fmt.Sprintf("core busy %v, sim %v", got.CoreBusy, want.CoreBusy)
	case !sameAll(got.Utilization, want.Utilization):
		return fmt.Sprintf("utilization %v, sim %v", got.Utilization, want.Utilization)
	case got.Preemptions != want.Preemptions:
		return fmt.Sprintf("preemptions %d, sim %d", got.Preemptions, want.Preemptions)
	case got.Migrations != want.Migrations:
		return fmt.Sprintf("migrations %d, sim %d", got.Migrations, want.Migrations)
	case got.Wakeups != want.Wakeups:
		return fmt.Sprintf("wakeups %d, sim %d", got.Wakeups, want.Wakeups)
	}
	return ""
}

// jitters perturb grid boundaries by amounts on both sides of the sweep's
// ε = Tol·1e-3 (1e-9 at the default tolerance).
var jitters = []float64{0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9}

func wideTasks(n int) task.Set {
	triples := make([][3]float64, n)
	for i := range triples {
		triples[i] = [3]float64{0, 1, 20}
	}
	return task.MustNew(triples...)
}

// TestSweepMatchesNaive runs the event-range sweep against the naive
// sweep on seeded adversarial schedules: boundaries on a coarse grid
// (many coincide) nudged by sub-ε jitter, random cores and tasks (core
// overlaps, task parallelism, more than m segments active), duplicated
// segments, and empty schedules. Frequencies span six decades so that
// the energy sum's rounding depends on the order it adds terms in.
func TestSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tols := []float64{0, 1e-6, 1e-3, 0.3}
	for trial := 0; trial < 3000; trial++ {
		n, m, count := 1+rng.Intn(6), 1+rng.Intn(4), rng.Intn(25)
		if trial%50 == 0 {
			n, m, count = 40, 16, 400
		}
		segs := gridSegments(rng, n, m, count)
		opts := DefaultOptions()
		opts.Tol = tols[rng.Intn(len(tols))]
		compareWithNaive(t, segs, wideTasks(n), m, opts)
	}
}

// gridSegments draws count segments of n tasks on m cores whose
// boundaries lie on a coarse grid nudged by sub-ε jitter, with one in
// six a duplicate of an earlier one, and frequencies over six decades.
func gridSegments(rng *rand.Rand, n, m, count int) []schedule.Segment {
	var segs []schedule.Segment
	for i := 0; i < count; i++ {
		if len(segs) > 0 && rng.Intn(6) == 0 {
			segs = append(segs, segs[rng.Intn(len(segs))])
			continue
		}
		start := float64(rng.Intn(12))/2 + jitters[rng.Intn(len(jitters))]
		end := start + float64(rng.Intn(8))/2 + jitters[rng.Intn(len(jitters))]
		if !(end > start) {
			end = start + 1e-10
		}
		segs = append(segs, schedule.Segment{
			Task: rng.Intn(n), Core: rng.Intn(m), Start: start, End: end,
			Frequency: math.Pow(10, 6*rng.Float64()-3),
		})
	}
	return segs
}

// TestAuditPooledScratchConcurrent audits schedules of different sizes
// and core counts from several goroutines at once, all drawing on the
// one scratch pool. Each result must match the naive sweep, and each
// profile an audit returned must stay as it was while later audits
// reuse the scratch it was derived in. Run it under -race.
func TestAuditPooledScratchConcurrent(t *testing.T) {
	pm := power.Unit(3, 0.05)
	for w := 0; w < 4; w++ {
		seed := int64(40 + w)
		t.Run(fmt.Sprint("worker", w), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var results []*Result
			var profiles []Profile
			for trial := 0; trial < 150; trial++ {
				n, m, count := 1+rng.Intn(40), 1+rng.Intn(16), rng.Intn(200)
				segs := gridSegments(rng, n, m, count)
				compareWithNaive(t, segs, wideTasks(n), m, DefaultOptions())
				s := schedule.New(wideTasks(n), m)
				s.Segments = segs
				res := Audit(s, s.Tasks, m, pm, DefaultOptions())
				p := res.Profile
				p.CoreBusy, p.Utilization = slices.Clone(p.CoreBusy), slices.Clone(p.Utilization)
				results, profiles = append(results, res), append(profiles, p)
			}
			for i, res := range results {
				if d := profileDiff(res.Profile, profiles[i]); d != "" {
					t.Fatalf("audit %d's profile changed after later audits: %s", i, d)
				}
			}
		})
	}
}

// TestAuditReversedStartOrder lists 16 cores of back-to-back segments in
// decreasing start order, which sends every Start's rank search the
// wrong way from its hint.
func TestAuditReversedStartOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ts, m := wideTasks(40), 16
	var segs []schedule.Segment
	for c := 0; c < m; c++ {
		for at := float64(rng.Intn(8)) / 4; at < 19; {
			// Ends on a coarse grid are shared across cores.
			end := at + float64(1+rng.Intn(6))/8
			if rng.Intn(3) == 0 {
				end = at + 0.01 + rng.Float64()
			}
			segs = append(segs, schedule.Segment{
				Task: rng.Intn(len(ts)), Core: c, Start: at, End: end, Frequency: math.Pow(10, 2*rng.Float64()-1),
			})
			at = end
			if rng.Intn(4) == 0 {
				at += float64(rng.Intn(4)) / 8
			}
		}
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Start > segs[j].Start })
	for _, tol := range []float64{1e-6, 0.3} {
		opts := DefaultOptions()
		opts.Tol = tol
		compareWithNaive(t, segs, ts, m, opts)
	}
}

// TestAuditPackedBoundaries packs 3 000 boundaries inside one ε = Tol·1e-3
// window, and 3 000 more inside another: each segment's run then starts
// or stops up to thousands of boundaries away from its own rank, which
// the ε-walk must reach without stepping boundary by boundary.
func TestAuditPackedBoundaries(t *testing.T) {
	const count = 3000
	opts := DefaultOptions()
	step := opts.Tol * 1e-3 / (2 * count) // all 3 000 within ε/2
	ts, m := wideTasks(6), 4
	segs := make([]schedule.Segment, 0, 2*count)
	for k := 0; k < count; k++ {
		segs = append(segs,
			schedule.Segment{Task: k % len(ts), Core: k % m, Start: 1 + float64(k)*step, End: 2 + float64(k%40)/40, Frequency: 0.5},
			schedule.Segment{Task: k % len(ts), Core: (k + 1) % m, Start: 3 + float64(k%40)/40, End: 5 + float64(k)*step, Frequency: 2})
	}
	compareWithNaive(t, segs, ts, m, opts)
}

// TestAuditSignedZeroBoundary gives the schedule a boundary at both −0
// and +0. They are one boundary, which the audit holds and reports as
// +0 whichever order the segments list them in.
func TestAuditSignedZeroBoundary(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ts := wideTasks(2)
	for _, zeros := range [][2]float64{{negZero, 0}, {0, negZero}} {
		segs := []schedule.Segment{
			{Task: 0, Core: 0, Start: zeros[0], End: 1, Frequency: 0.5},
			{Task: 1, Core: 1, Start: zeros[1], End: 2, Frequency: 0.5},
			{Task: 0, Core: 0, Start: 1, End: 2, Frequency: 0.5},
		}
		compareWithNaive(t, segs, ts, 2, DefaultOptions())
		if runs := new(scratch).findRuns(segs, 2, 1e-9); math.Signbit(runs.uniq[0]) {
			t.Fatalf("zeros %v: first boundary is %v, want +0", zeros, runs.uniq[0])
		}
		s := schedule.New(ts, 2)
		s.Segments = segs
		if res := Audit(s, ts, 2, power.Unit(3, 0.05), DefaultOptions()); !res.OK() {
			t.Fatalf("zeros %v: %v", zeros, res.Violations)
		}

		// Two segments sharing core 0 from the zero boundary on: the
		// overlap is reported at +0.
		s.Segments = []schedule.Segment{
			{Task: 0, Core: 0, Start: zeros[0], End: 1, Frequency: 1},
			{Task: 1, Core: 0, Start: zeros[1], End: 1, Frequency: 1},
		}
		want := []Violation{{Kind: KindCoreOverlap, Task: -1, Time: 0, Detail: "core 0 hosts 2 segments during [0, 1]"}}
		vs := Validate(s, ts, 2, power.Unit(3, 0.05))
		if fmt.Sprint(vs) != fmt.Sprint(want) || math.Signbit(vs[0].Time) {
			t.Fatalf("zeros %v: violations %v, want %v at +0", zeros, vs, want)
		}
	}
}

// FuzzAudit decodes arbitrary bytes into a segment list (malformed
// segments included) and checks Audit against the naive sweep and,
// when it finds no violations, its profile against sim.Run's (see
// compareWithSim).
func FuzzAudit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 8, 0, 64, 1, 0, 0, 0, 0, 8, 0, 64})
	f.Add([]byte{5, 2, 1, 0, 0, 4, 3, 12, 100, 1, 1, 4, 4, 3, 17, 90, 2, 0, 5, 0, 6, 200})
	f.Add([]byte{2, 3, 0, 1, 2, 255, 0, 4, 30, 0, 0, 254, 0, 4, 30, 1, 1, 2, 0, 0, 0})
	// Schedules the audit accepts, so the profile is compared with
	// sim.Run: one segment; then a migration, a wake-up after idle time
	// and a 1e-12 sliver that no slice holds.
	f.Add([]byte{0, 0, 0, 0, 0, 4, 129})
	f.Add([]byte{7, 0, 0, 0, 0, 2, 129, 0, 1, 2, 0, 2, 129, 1, 0, 2, 0, 2, 129, 1, 0, 8, 0, 2, 129, 1, 1, 12, 0, 32, 129})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n, m := 1+int(data[0]%6), 1+int(data[0]/6%4)
		tols := []float64{1e-6, 1e-3, 1e-9, 0.3}
		opts := DefaultOptions()
		opts.Tol = tols[data[0]/24%4]
		var segs []schedule.Segment
		for p := data[1:]; len(p) >= 6; p = p[6:] {
			start := float64(p[2]%64)/4 + jitters[p[3]%8]
			switch p[2] {
			case 255:
				start = math.NaN()
			case 254:
				start = math.Inf(1)
			}
			end := start + float64(p[4]%32)/4 + jitters[p[4]>>5]
			segs = append(segs, schedule.Segment{
				Task: int(p[0]) % (n + 1), Core: int(p[1]) % (m + 1),
				Start: start, End: end, Frequency: math.Ldexp(float64(p[5]&31), int(p[5]>>5)*3-12),
			})
		}
		compareWithNaive(t, segs, wideTasks(n), m, opts)
	})
}
