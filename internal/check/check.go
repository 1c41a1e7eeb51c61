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
//     sweep finds each segment's run of elementary slices by binary
//     search, so it costs O(S log S + Σ active segments per slice) for S
//     segments rather than O(slices·S). The same boundary sort yields the
//     schedule's execution profile (Profile), the figures a served reply
//     carries, which sim.Run derives independently;
//   - a registry lets every scheduler package self-register a runner, so
//     new schedulers are picked up by the cross-checks without edits here;
//     Entry.RunVerified runs one with panic containment and the audit.
//
// check imports only numeric, power, schedule and task, so every
// scheduler package (core, yds, partition, online, opt, capped) checks
// its own output with Validate. The differential harness, which runs
// all registered schedulers on one instance against the other
// independent oracles (sim.Run, the max-flow feasibility test, the
// convex optimal solver and its realized schedule, the small-instance
// brute-force optimum), lives in internal/crosscheck.
package check

import (
	"fmt"
	"math"
	"sort"

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
// Audit with DefaultOptions.
func Validate(s *schedule.Schedule, ts task.Set, m int, pm power.Model) []Violation {
	return Audit(s, ts, m, pm, DefaultOptions()).Violations
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
// from the same boundary sort, so a caller that serves the schedule
// need not replay it through sim.Run.
//
// The sweep computes every instantaneous quantity from scratch rather
// than trusting per-segment bookkeeping; sim.Run, which replays the
// segments as events, is the independent check on it (see
// internal/crosscheck). Each overlap offender is reported once,
// at its first offending slice, in segment order. For S segments the
// audit costs O(S log S + Σ active segments per slice).
func Audit(s *schedule.Schedule, ts task.Set, m int, pm power.Model, opts Options) *Result {
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
	// from the sweep so one malformed segment does not cascade.
	sweep := make([]schedule.Segment, 0, len(s.Segments))
	for _, seg := range s.Segments {
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
			continue
		}
		tk := ts[seg.Task]
		if seg.Start < tk.Release-opts.Tol || seg.End > tk.Deadline+opts.Tol {
			add(KindWindow, seg.Task, seg.Start, "segment %v outside window [%g, %g]", seg, tk.Release, tk.Deadline)
		}
		sweep = append(sweep, seg)
	}

	runs := newSliceRuns(sweep, opts.Tol*1e-3)
	sweepAudit(sweep, &runs, ts, m, pm, res, add)
	res.Profile = executionProfile(sweep, &runs, ts, s.Cores, pm)

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

// sliceRuns cuts the time line at every segment boundary and locates
// each segment's run of elementary slices. uniq holds the distinct
// boundaries in increasing order; slice k is [uniq[k], uniq[k+1]].
//
// Segment i is active in slice k iff Start ≤ uniq[k]+ε and
// End ≥ uniq[k+1]−ε. Both tests are monotone in k, so each segment is
// active over one contiguous run of slices [first[i], stop[i]) found by
// two binary searches. first[i] is non-decreasing in Start and stop[i]
// in End, so they double as coarse ranks of the two.
type sliceRuns struct {
	eps         float64
	uniq        []float64
	first, stop []int
}

func newSliceRuns(segs []schedule.Segment, eps float64) sliceRuns {
	if len(segs) == 0 {
		return sliceRuns{eps: eps}
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
	r := sliceRuns{eps: eps, uniq: uniq, first: make([]int, len(segs)), stop: make([]int, len(segs))}
	slices := len(uniq) - 1
	// stop negates the activity test rather than flipping its
	// comparison, so the two agree exactly on every float input.
	for i, seg := range segs {
		r.first[i] = sort.Search(slices, func(k int) bool { return seg.Start <= uniq[k]+eps })
		r.stop[i] = sort.Search(slices, func(k int) bool { return !(seg.End >= uniq[k+1]-eps) })
	}
	return r
}

// sweepAudit walks the elementary time slices of runs, re-deriving
// concurrency, per-core and per-task exclusivity, per-task work, busy
// time, and the energy integral.
//
// Segments are bucketed by the first slice of their run and the active
// set is kept in segment order, so every sum adds its terms in the same
// order a per-slice rescan of all segments would.
func sweepAudit(segs []schedule.Segment, runs *sliceRuns, ts task.Set, m int, pm power.Model,
	res *Result, add func(Kind, int, float64, string, ...any)) {
	if len(segs) == 0 {
		return
	}
	uniq, first, stop, eps := runs.uniq, runs.first, runs.stop, runs.eps
	slices := len(uniq) - 1

	// bucket[k]..bucket[k+1] indexes, in order, the segments whose active
	// run starts at slice k (a counting sort on first).
	segPower := make([]float64, len(segs))
	bucket := make([]int, slices+2)
	for i, seg := range segs {
		segPower[i] = pm.Power(seg.Frequency)
		if first[i] < stop[i] {
			bucket[first[i]+2]++
		}
	}
	for k := 2; k < len(bucket); k++ {
		bucket[k] += bucket[k-1]
	}
	order := make([]int, bucket[len(bucket)-1])
	for i := range segs {
		if first[i] < stop[i] {
			order[bucket[first[i]+1]] = i
			bucket[first[i]+1]++
		}
	}

	var energy, busy numeric.KahanSum
	work := make([]numeric.KahanSum, len(ts))
	ran := make([]bool, len(ts))
	perCore := make([]int, m)
	perTask := make([]int, len(ts))
	// Violations are reported once per offender, at the first offending
	// slice, rather than once per slice — a long overlap is one bug.
	conReported := false
	coreReported := make([]bool, m)
	taskReported := make([]bool, len(ts))

	active := make([]int, 0, len(segs))
	next := make([]int, 0, len(segs))
	for k := 0; k < slices; k++ {
		// Retire segments whose run ended and merge in those whose run
		// starts here; both lists are in segment order.
		admit := order[bucket[k]:bucket[k+1]]
		next = next[:0]
		for _, i := range active {
			if stop[i] <= k {
				continue
			}
			for len(admit) > 0 && admit[0] < i {
				next = append(next, admit[0])
				admit = admit[1:]
			}
			next = append(next, i)
		}
		next = append(next, admit...)
		active, next = next, active

		lo, hi := uniq[k], uniq[k+1]
		dt := hi - lo
		if dt <= eps {
			// Slivers below the tolerance floor carry no measurable work
			// or energy and only amplify float noise.
			continue
		}
		if len(active) > m && !conReported {
			add(KindConcurrency, -1, lo, "%d segments active during [%g, %g] on %d cores", len(active), lo, hi, m)
			conReported = true
		}
		for _, i := range active {
			seg := segs[i]
			perCore[seg.Core]++
			perTask[seg.Task]++
			energy.Add(segPower[i] * dt)
			busy.Add(dt)
			work[seg.Task].Add(seg.Frequency * dt)
			ran[seg.Task] = true
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
		if ran[id] {
			res.Work[id] = work[id].Value()
		}
	}
}
