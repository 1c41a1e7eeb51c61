// Package check is the universal correctness layer for every scheduler
// in the repository. All of them promise the same contract — each task
// completes C_i units of work inside [R_i, D_i], at most m tasks run
// concurrently, and energy is ∫ γ·f^α + p0 over busy time — but each
// realizes it through different machinery. This package enforces the
// contract uniformly:
//
//   - Validate re-derives every constraint from the raw segments alone,
//     without trusting any of the scheduler's own bookkeeping, and
//     re-integrates energy independently by sweeping instantaneous total
//     power over time (rather than summing per-segment energies). The
//     sweep sorts the distinct segment boundaries once and finds each
//     segment's run of elementary slices by galloping from the ranks of
//     a segment listed before it, so it costs at most
//     O(S log S + Σ active segments per slice) for S segments rather
//     than O(slices·S). Audit also derives the schedule's execution
//     profile (Profile) from the same ranks, the figures a served reply
//     carries, which sim.Run derives independently; Validate, which has
//     no use for it, skips it. An audit's working memory is kept
//     across audits in a free list, and returns to it only after an
//     audit that did not panic; nothing an audit returns (Result, its
//     Violations and Work, the Profile's slices) aliases it;
//   - a registry lets every scheduler package self-register a runner, so
//     new schedulers are picked up by the cross-checks without edits here;
//     Entry.RunVerified runs one with panic containment and the audit,
//     and Entry.RunAudited also returns the profile.
//
// check imports only freelist, numeric, power, schedule and task, so
// every scheduler package (core, yds, partition, online, opt, capped)
// checks its own output with Validate. The differential harness, which
// runs all registered schedulers on one instance against the other
// independent oracles (sim.Run, the max-flow feasibility test, the
// convex optimal solver and its realized schedule, the small-instance
// brute-force optimum), lives in internal/crosscheck.
package check

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/freelist"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Kind classifies a contract violation.
type Kind string

// Violation kinds. Each names the clause of the scheduling contract that
// was broken.
const (
	// KindSegment marks a malformed segment: unknown task ID, core index
	// outside 0..m-1, or a non-positive duration.
	KindSegment Kind = "segment"
	// KindFrequency marks a non-positive or non-finite frequency.
	KindFrequency Kind = "frequency"
	// KindWindow marks execution outside the task's [R_i, D_i] window.
	KindWindow Kind = "window"
	// KindWork marks a work-conservation failure: Σ f·dt ≠ C_i.
	KindWork Kind = "work"
	// KindConcurrency marks an instant with more than m segments active.
	KindConcurrency Kind = "concurrency"
	// KindCoreOverlap marks two segments sharing one core at one instant.
	KindCoreOverlap Kind = "core-overlap"
	// KindTaskParallel marks one task active on two cores at one instant.
	KindTaskParallel Kind = "task-parallel"
	// KindEnergy marks a reported energy that disagrees with the
	// independent re-integration.
	KindEnergy Kind = "energy"
)

// Violation is one structured contract failure.
type Violation struct {
	Kind Kind
	// Task is the offending task ID, or -1 when the violation is not
	// attributable to a single task.
	Task int
	// Time locates the violation (segment start or sweep instant); NaN
	// when the violation has no time coordinate (e.g. work totals).
	Time   float64
	Detail string
}

func (v Violation) Error() string {
	if v.Task >= 0 {
		return fmt.Sprintf("%s [task %d]: %s", v.Kind, v.Task, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// Options tunes the validator.
type Options struct {
	// Tol is the absolute time/relative work tolerance (default 1e-6).
	Tol float64
	// ReportedEnergy, when non-NaN, is cross-checked against the
	// independent re-integration within EnergyTol.
	ReportedEnergy float64
	// EnergyTol is the relative energy-agreement tolerance (default 1e-5).
	EnergyTol float64
	// AllowOverwork accepts tasks that complete more than C_i (running
	// faster than necessary never breaks timing). Under-work is always a
	// violation.
	AllowOverwork bool
}

// DefaultOptions are the settings used by Validate: strict tolerances,
// overwork allowed, no reported-energy comparison.
func DefaultOptions() Options {
	return Options{Tol: 1e-6, ReportedEnergy: math.NaN(), EnergyTol: 1e-5, AllowOverwork: true}
}

// Result is the full audit output.
type Result struct {
	Violations []Violation
	// Energy is the independent re-integration ∫ Σ_active p(f) dt.
	Energy float64
	// BusyTime is Σ over instants of (number of active segments)·dt.
	BusyTime float64
	// Work[i] is the re-derived completed work of task i.
	Work map[int]float64
	// Profile is the schedule's execution profile, derived in the same
	// pass. It is only meaningful when the audit found no violations.
	Profile Profile
}

// OK reports whether the audit found no violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Validate re-derives the scheduling contract from the raw schedule
// alone and returns all violations found. It is the 4-argument form of
// Audit with DefaultOptions, and skips the execution profile.
func Validate(s *schedule.Schedule, ts task.Set, m int, pm power.Model) []Violation {
	return audit(s, ts, m, pm, DefaultOptions(), false).Violations
}

// Audit checks a schedule against the contract of Section III.C using
// only its segments, the task set, the core count, and the power model:
//
//  1. every segment references a known task, a core in 0..m-1, a
//     positive duration, and a positive finite frequency;
//  2. every segment lies inside its task's [R_i, D_i] window;
//  3. sweeping time, at most m segments are active at any instant, no
//     core hosts two segments at once, and no task runs on two cores at
//     once;
//  4. every task's work is conserved: Σ f·dt = C_i within tolerance;
//  5. energy is re-integrated as ∫ Σ_active (γ·f^α + p0) dt and, when
//     Options.ReportedEnergy is set, compared against it.
//
// Audit also derives the schedule's execution profile (Result.Profile)
// from the same boundary ranks, so a caller that serves the schedule
// need not replay it through sim.Run.
//
// The sweep computes every instantaneous quantity from scratch rather
// than trusting per-segment bookkeeping; sim.Run, which replays the
// segments as events, is the independent check on it (see
// internal/crosscheck). Each overlap offender is reported once,
// at its first offending slice, in segment order. For S segments the
// audit costs at most O(S log S + Σ active segments per slice).
func Audit(s *schedule.Schedule, ts task.Set, m int, pm power.Model, opts Options) *Result {
	return audit(s, ts, m, pm, opts, true)
}

// audit is Audit; it derives the execution profile only when profile is
// set, for the callers that serve or test it.
func audit(s *schedule.Schedule, ts task.Set, m int, pm power.Model, opts Options, profile bool) *Result {
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.EnergyTol <= 0 {
		opts.EnergyTol = 1e-5
	}
	res := &Result{Work: make(map[int]float64, len(ts))}
	add := func(kind Kind, taskID int, t float64, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{
			Kind: kind, Task: taskID, Time: t, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Per-segment structural checks. Segments that fail them are excluded
	// from the sweep so one malformed segment does not cascade. The sweep
	// reads s.Segments in place until the first such segment.
	sweep, copied := s.Segments, false
	for i, seg := range s.Segments {
		bad := false
		if seg.Task < 0 || seg.Task >= len(ts) {
			add(KindSegment, -1, seg.Start, "segment %v references unknown task (n=%d)", seg, len(ts))
			bad = true
		}
		if seg.Core < 0 || seg.Core >= m {
			add(KindSegment, seg.Task, seg.Start, "segment %v uses core outside 0..%d", seg, m-1)
			bad = true
		}
		if !(seg.End > seg.Start) || math.IsNaN(seg.Start) || math.IsInf(seg.Start, 0) ||
			math.IsNaN(seg.End) || math.IsInf(seg.End, 0) {
			add(KindSegment, seg.Task, seg.Start, "segment %v has non-positive or non-finite duration", seg)
			bad = true
		}
		if !(seg.Frequency > 0) || math.IsInf(seg.Frequency, 0) || math.IsNaN(seg.Frequency) {
			add(KindFrequency, seg.Task, seg.Start, "segment %v has invalid frequency", seg)
			bad = true
		}
		if bad {
			if !copied {
				sweep = append(make([]schedule.Segment, 0, len(s.Segments)-1), s.Segments[:i]...)
				copied = true
			}
			continue
		}
		tk := ts[seg.Task]
		if seg.Start < tk.Release-opts.Tol || seg.End > tk.Deadline+opts.Tol {
			add(KindWindow, seg.Task, seg.Start, "segment %v outside window [%g, %g]", seg, tk.Release, tk.Deadline)
		}
		if copied {
			sweep = append(sweep, seg)
		}
	}

	// The scratch goes back only once the passes that use it have
	// returned: after a panic it is dropped.
	sc := scratches.Get()
	if sc == nil {
		sc = new(scratch)
	}
	runs := sc.findRuns(sweep, m, opts.Tol*1e-3)
	segPower := take(&sc.segPower, len(sweep))
	for i := range sweep {
		segPower[i] = pm.Power(sweep[i].Frequency)
	}
	sc.sweepAudit(sweep, segPower, &runs, ts, m, res, add)
	if profile {
		res.Profile = sc.executionProfile(sweep, segPower, &runs, ts, s.Cores)
	}
	scratches.Put(sc)

	// Work conservation, from the sweep's own integration.
	for _, tk := range ts {
		w := res.Work[tk.ID]
		rel := opts.Tol * math.Max(1, tk.Work)
		switch {
		case w < tk.Work-rel:
			add(KindWork, tk.ID, math.NaN(), "completed %g of %g", w, tk.Work)
		case w > tk.Work+rel && !opts.AllowOverwork:
			add(KindWork, tk.ID, math.NaN(), "over-executed: %g of %g", w, tk.Work)
		}
	}

	if !math.IsNaN(opts.ReportedEnergy) {
		diff := math.Abs(opts.ReportedEnergy - res.Energy)
		if diff > opts.EnergyTol*math.Max(1, res.Energy) {
			add(KindEnergy, -1, math.NaN(),
				"reported energy %.9g disagrees with re-integrated %.9g", opts.ReportedEnergy, res.Energy)
		}
	}
	return res
}

// scratch is one audit's working memory: the segment powers, the
// boundary pass's cache, boundaries and ranks, the sweep's counters and
// work sums, and the profile walks' buffers. Audits take it from
// scratches, so the guardrail that runs on every solve and every
// session replan does not allocate it afresh; nothing an audit returns
// aliases it.
type scratch struct {
	cache    boundaryCache
	segPower []float64
	pts      []float64
	ranks    []int32
	ints     []int32
	work     []numeric.KahanSum
	reported []bool
	floats   []float64
	walk     []int32
}

// scratches holds idle scratch. Collections do not empty it, so an
// audit that follows one, or the rare audit of a whole session at its
// end, finds its buffers grown.
var scratches = freelist.New[scratch]()

// take resizes *buf to length n, reallocating it only when it is too
// short, and returns it. The contents are stale: the caller sets or
// clears them.
func take[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// sliceRuns cuts the time line at every segment boundary and locates
// each segment's run of elementary slices. uniq holds the distinct
// boundaries in increasing order; slice k is [uniq[k], uniq[k+1]]. −0
// and +0 are one boundary, held in uniq as +0.
//
// start[i] and end[i] are the exact ranks of segment i's Start and End
// in uniq. Segment i is active in slice k iff Start ≤ uniq[k]+ε and
// End ≥ uniq[k+1]−ε. Both tests are monotone in k, so each segment is
// active over one contiguous run of slices [first[i], stop[i]), with
// first[i] ≤ start[i] and stop[i] ≥ end[i]. first[i] is non-decreasing
// in Start and stop[i] in End.
type sliceRuns struct {
	eps                     float64
	uniq                    []float64
	first, stop, start, end []int32
}

// findRuns finds the runs of segments on cores 0..m−1 without a
// binary search per segment. A small cache of recent boundaries drops
// most repeats before the sort. Each Start's rank is then found by
// galloping from the End rank of the previous segment on its core, and
// each End's from its own Start's, unless the cache holds it: a
// schedule whose cores run their segments back to back costs
// O(log length) per segment. first and stop are walked from those exact
// ranks by the activity tests themselves, galloping too, so boundaries
// packed within ε cannot make the walk quadratic. The runs equal what a
// binary search over uniq finds.
func (sc *scratch) findRuns(segs []schedule.Segment, m int, eps float64) sliceRuns {
	if len(segs) == 0 {
		return sliceRuns{eps: eps}
	}
	cache := &sc.cache
	cache.reset()
	pts := take(&sc.pts, 2*len(segs))[:0]
	for i := range segs {
		for _, p := range [2]float64{segs[i].Start, segs[i].End} {
			if p == 0 {
				p = 0 // −0 → +0
			}
			if !cache.insert(p) {
				pts = append(pts, p)
			}
		}
	}
	slices.Sort(pts)
	uniq := pts[:1]
	for _, p := range pts[1:] {
		if p > uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}

	n := len(segs)
	ranks := take(&sc.ranks, 4*n+m)
	r := sliceRuns{eps: eps, uniq: uniq,
		first: ranks[:n:n], stop: ranks[n : 2*n : 2*n], start: ranks[2*n : 3*n : 3*n], end: ranks[3*n : 4*n : 4*n]}
	coreEnd := ranks[4*n:] // End rank of the core's previous segment
	clear(coreEnd)
	last := len(uniq) - 1 // the last slice is [uniq[last-1], uniq[last]]
	cache.reset()
	for i := range segs {
		start, end, c := segs[i].Start, segs[i].End, segs[i].Core
		sr := cache.rank(uniq, start, int(coreEnd[c]))
		er := cache.rank(uniq, end, sr+1)
		coreEnd[c] = int32(er)

		// first: the least k ≤ sr with start ≤ uniq[k]+ε, which holds at
		// sr. Gallop down while it still holds, then bisect.
		f, step := sr, 1
		for f-step >= 0 && start <= uniq[f-step]+eps {
			f -= step
			step *= 2
		}
		for lo := max(f-step, -1); f-lo > 1; {
			if mid := int(uint(lo+f) >> 1); start <= uniq[mid]+eps {
				f = mid
			} else {
				lo = mid
			}
		}

		// stop: the least k ≥ er with end < uniq[k+1]−ε, or the slice
		// count; the test fails below er. It negates the activity test
		// rather than flipping its comparison, so the two agree exactly on
		// every float input.
		s := er
		if s < last && end >= uniq[s+1]-eps {
			lo := s
			for step = 1; lo+step < last && end >= uniq[lo+step+1]-eps; step *= 2 {
				lo += step
			}
			for s = min(lo+step, last); s-lo > 1; {
				if mid := int(uint(lo+s) >> 1); end >= uniq[mid+1]-eps {
					lo = mid
				} else {
					s = mid
				}
			}
		}
		r.first[i], r.stop[i], r.start[i], r.end[i] = int32(f), int32(s), int32(sr), int32(er)
	}
	return r
}

// cacheBits sizes boundaryCache at 256 slots. Boundaries repeat mostly
// within a few neighbouring segments (one segment's End is the next
// one's Start, cores switch at the same instants), which a small table
// catches.
const cacheBits = 8

// boundaryCache is a direct-mapped table of recently seen boundaries,
// keyed on their bits, and of their ranks once those are known.
type boundaryCache struct {
	bits  [1 << cacheBits]uint64
	ranks [1 << cacheBits]int32
}

// reset empties the cache. No finite boundary has a NaN's bits, so an
// unused slot never matches.
func (c *boundaryCache) reset() {
	for k := range c.bits {
		c.bits[k] = math.Float64bits(math.NaN())
	}
}

// cacheSlot returns x's bits and its slot, by Fibonacci hashing.
func cacheSlot(x float64) (bits, slot uint64) {
	bits = math.Float64bits(x)
	return bits, bits * 0x9E3779B97F4A7C15 >> (64 - cacheBits)
}

// insert records x and reports whether its slot already held it.
func (c *boundaryCache) insert(x float64) bool {
	b, k := cacheSlot(x)
	held := c.bits[k] == b
	c.bits[k] = b
	return held
}

// rank returns the index of x in uniq, which holds it, from the cache or
// by rankFrom from hint.
func (c *boundaryCache) rank(uniq []float64, x float64, hint int) int {
	b, k := cacheSlot(x)
	if c.bits[k] == b {
		return int(c.ranks[k])
	}
	r := rankFrom(uniq, x, hint)
	c.bits[k], c.ranks[k] = b, int32(r)
	return r
}

// rankFrom returns the index of x in xs, which is sorted, duplicate-free
// and holds x, galloping out from the index hint.
func rankFrom(xs []float64, x float64, hint int) int {
	hint = min(hint, len(xs)-1)
	if xs[hint] < x {
		lo, step := hint, 1 // xs[lo] < x
		for lo+step < len(xs) && xs[lo+step] < x {
			lo += step
			step *= 2
		}
		return lowerBound(xs, x, lo, min(lo+step, len(xs)-1))
	}
	hi, step := hint, 1 // xs[hi] ≥ x
	for hi-step >= 0 && xs[hi-step] >= x {
		hi -= step
		step *= 2
	}
	return lowerBound(xs, x, max(hi-step, -1), hi)
}

// lowerBound returns the least index in (lo, hi] whose value is at least
// x, given xs[lo] < x (or lo = −1) and xs[hi] ≥ x.
func lowerBound(xs []float64, x float64, lo, hi int) int {
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); xs[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// sweepAudit walks the elementary time slices of runs, re-deriving
// concurrency, per-core and per-task exclusivity, per-task work, busy
// time, and the energy integral.
//
// Segments are bucketed by the first slice of their run and the active
// set is kept in segment order, so every sum adds its terms in the same
// order a per-slice rescan of all segments would. One pass per summed
// slice adds the terms and stamps each core and task with the slice;
// only a slice where a stamp repeats is counted again to report its
// offenders.
func (sc *scratch) sweepAudit(segs []schedule.Segment, segPower []float64, runs *sliceRuns, ts task.Set, m int,
	res *Result, add func(Kind, int, float64, string, ...any)) {
	if len(segs) == 0 {
		return
	}
	uniq, first, stop, eps := runs.uniq, runs.first, runs.stop, runs.eps
	nslices := len(uniq) - 1
	n := len(ts)

	// One buffer each for the int32 scratch, the per-task work sums and
	// the report flags, all cleared.
	ints := take(&sc.ints, nslices+2+3*len(segs)+2*(m+n))
	clear(ints)
	// bucket[k]..bucket[k+1] indexes, in order, the segments whose active
	// run starts at slice k (a counting sort on first).
	bucket, ints := ints[:nslices+2], ints[nslices+2:]
	order, ints := ints[:0:len(segs)], ints[len(segs):]
	active, ints := ints[:0:len(segs)], ints[len(segs):]
	next, ints := ints[:0:len(segs)], ints[len(segs):]
	// coreSeen[c] and taskSeen[id] hold 1 + the last slice that summed a
	// segment of the core or task: a task ran iff its stamp is set.
	// perCore and perTask count a clashing slice's segments.
	coreSeen, perCore, ints := ints[:m], ints[m:2*m], ints[2*m:]
	taskSeen, perTask := ints[:n], ints[n:]
	work := take(&sc.work, n)
	clear(work)

	for i := range segs {
		if first[i] < stop[i] {
			bucket[first[i]+2]++
		}
	}
	for k := 2; k < len(bucket); k++ {
		bucket[k] += bucket[k-1]
	}
	order = order[:bucket[len(bucket)-1]]
	for i := range segs {
		if first[i] < stop[i] {
			order[bucket[first[i]+1]] = int32(i)
			bucket[first[i]+1]++
		}
	}

	var energy, busy numeric.KahanSum
	// Violations are reported once per offender, at the first offending
	// slice, rather than once per slice — a long overlap is one bug.
	conReported := false
	reported := take(&sc.reported, m+n)
	clear(reported)
	coreReported, taskReported := reported[:m], reported[m:]

	// order[admitted:] are the segments not yet merged into active.
	admitted := int32(0)
	for k := 0; k < nslices; k++ {
		lo, hi := uniq[k], uniq[k+1]
		dt := hi - lo
		if dt <= eps {
			// Slivers below the tolerance floor carry no measurable work
			// or energy and only amplify float noise. Nothing is summed
			// over them, so the active set waits for the next slice that
			// is: boundaries packed within ε cost no merge each.
			continue
		}
		// Retire segments whose run ended and merge in those whose run
		// started since the last merge; both lists are in segment order.
		// Runs that started and ended among the skipped slivers drop out.
		admit := order[admitted:bucket[k+1]]
		if admitted < bucket[k] {
			slices.Sort(admit) // several buckets, each in segment order
		}
		admitted = bucket[k+1]
		next = next[:0]
		for _, i := range active {
			if int(stop[i]) <= k {
				continue
			}
			for len(admit) > 0 && admit[0] < i {
				if int(stop[admit[0]]) > k {
					next = append(next, admit[0])
				}
				admit = admit[1:]
			}
			next = append(next, i)
		}
		for _, i := range admit {
			if int(stop[i]) > k {
				next = append(next, i)
			}
		}
		active, next = next, active

		if len(active) > m && !conReported {
			add(KindConcurrency, -1, lo, "%d segments active during [%g, %g] on %d cores", len(active), lo, hi, m)
			conReported = true
		}
		stamp, clash := int32(k+1), false
		for _, i := range active {
			seg := &segs[i]
			if coreSeen[seg.Core] == stamp || taskSeen[seg.Task] == stamp {
				clash = true
			}
			coreSeen[seg.Core], taskSeen[seg.Task] = stamp, stamp
			energy.Add(segPower[i] * dt)
			busy.Add(dt)
			work[seg.Task].Add(seg.Frequency * dt)
		}
		if !clash {
			continue
		}
		for _, i := range active {
			perCore[segs[i].Core]++
			perTask[segs[i].Task]++
		}
		// Offenders are reported in segment order. Each counter is
		// cleared at its first visit, which is where its offender (if
		// any) is reported, so later visits see zero.
		for _, i := range active {
			c := segs[i].Core
			if cnt := perCore[c]; cnt > 1 && !coreReported[c] {
				add(KindCoreOverlap, -1, lo, "core %d hosts %d segments during [%g, %g]", c, cnt, lo, hi)
				coreReported[c] = true
			}
			perCore[c] = 0
		}
		for _, i := range active {
			id := segs[i].Task
			if cnt := perTask[id]; cnt > 1 && !taskReported[id] {
				add(KindTaskParallel, id, lo, "task runs on %d cores during [%g, %g]", cnt, lo, hi)
				taskReported[id] = true
			}
			perTask[id] = 0
		}
	}
	res.Energy = energy.Value()
	res.BusyTime = busy.Value()
	for id := range work {
		if taskSeen[id] != 0 {
			res.Work[id] = work[id].Value()
		}
	}
}
