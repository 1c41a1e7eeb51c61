// Package schedule represents concrete multi-core DVFS schedules: per-core
// sequences of execution segments with frequencies, along with feasibility
// validation (the constraints of Section III.C), exact energy accounting
// (Eq. 7 under the sleep-when-idle convention), and an ASCII Gantt
// renderer for inspection.
package schedule

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/task"
)

// Segment is one contiguous execution of a task on a core at a constant
// frequency over [Start, End).
type Segment struct {
	Task      int     // task ID
	Core      int     // core index 0..m-1
	Start     float64 // segment start time
	End       float64 // segment end time (exclusive)
	Frequency float64 // execution frequency, > 0
}

// Duration returns End − Start.
func (s Segment) Duration() float64 { return s.End - s.Start }

// Work returns the execution requirement completed during the segment,
// f·(End − Start) (Section III.C).
func (s Segment) Work() float64 { return s.Frequency * s.Duration() }

func (s Segment) String() string {
	return fmt.Sprintf("τ%d@M%d [%g, %g) f=%g", s.Task, s.Core, s.Start, s.End, s.Frequency)
}

// Schedule is a complete schedule of a task set on m cores.
type Schedule struct {
	Tasks    task.Set
	Cores    int
	Segments []Segment
}

// New creates an empty schedule for the given task set and core count.
func New(ts task.Set, cores int) *Schedule {
	return &Schedule{Tasks: ts, Cores: cores}
}

// Add appends a segment. Zero-duration segments are dropped silently so
// construction code does not need epsilon guards.
func (s *Schedule) Add(seg Segment) {
	if seg.Duration() <= 0 {
		return
	}
	s.Segments = append(s.Segments, seg)
}

// Grow pre-sizes the segment buffer for at least n more Add calls, so
// builders that know the segment count up front avoid append regrowth.
func (s *Schedule) Grow(n int) {
	s.Segments = slices.Grow(s.Segments, n)
}

func cmpSegment(a, b Segment) int {
	if a.Core != b.Core {
		if a.Core < b.Core {
			return -1
		}
		return 1
	}
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	return a.Task - b.Task
}

// sortSegments orders segments by (core, start, task) for validation and
// rendering. Builders emit segments in ascending time order per core, so
// the common case is two linear passes: bucket by core, then a
// nearly-sorted (often no-op) sort within each bucket.
func (s *Schedule) sortSegments() []Segment {
	segs := make([]Segment, len(s.Segments))
	if s.Cores <= 0 {
		copy(segs, s.Segments)
		slices.SortFunc(segs, cmpSegment)
		return segs
	}
	counts := make([]int, s.Cores)
	for _, seg := range s.Segments {
		if seg.Core < 0 || seg.Core >= s.Cores {
			// Malformed schedule (fuzzing, hand-built): fall back to the
			// plain global sort.
			copy(segs, s.Segments)
			slices.SortFunc(segs, cmpSegment)
			return segs
		}
		counts[seg.Core]++
	}
	offs := make([]int, s.Cores)
	off := 0
	for c, n := range counts {
		offs[c] = off
		off += n
	}
	for _, seg := range s.Segments {
		segs[offs[seg.Core]] = seg
		offs[seg.Core]++
	}
	off = 0
	for _, n := range counts {
		bucket := segs[off : off+n]
		if !slices.IsSortedFunc(bucket, cmpSegment) {
			slices.SortFunc(bucket, cmpSegment)
		}
		off += n
	}
	return segs
}

// byTask groups each task's segments in start order. Task IDs are dense
// (0..n-1), so the grouping is two counting passes over one shared
// backing array rather than a map of growing slices.
func (s *Schedule) byTask() [][]Segment {
	n := len(s.Tasks)
	out := make([][]Segment, n)
	counts := make([]int, n)
	stray := 0
	for _, seg := range s.Segments {
		if seg.Task < 0 || seg.Task >= n {
			stray++
			continue
		}
		counts[seg.Task]++
	}
	backing := make([]Segment, len(s.Segments)-stray)
	off := 0
	for id := 0; id < n; id++ {
		out[id] = backing[off : off : off+counts[id]]
		off += counts[id]
	}
	for _, seg := range s.Segments {
		if seg.Task < 0 || seg.Task >= n {
			continue
		}
		out[seg.Task] = append(out[seg.Task], seg)
	}
	for _, segs := range out {
		slices.SortFunc(segs, func(a, b Segment) int {
			if a.Start < b.Start {
				return -1
			}
			if a.Start > b.Start {
				return 1
			}
			return 0
		})
	}
	return out
}

// CompletedWork returns the total work executed for each task ID.
func (s *Schedule) CompletedWork() map[int]float64 {
	out := make(map[int]float64, len(s.Tasks))
	sums := make([]numeric.KahanSum, len(s.Tasks))
	for _, seg := range s.Segments {
		if seg.Task < 0 || seg.Task >= len(sums) {
			continue
		}
		sums[seg.Task].Add(seg.Work())
	}
	for id := range sums {
		out[id] = sums[id].Value()
	}
	return out
}

// Energy returns the total energy of the schedule under the continuous
// power model: Σ segments p(f)·duration. Idle cores sleep at zero power.
func (s *Schedule) Energy(m power.Model) float64 {
	var k numeric.KahanSum
	for _, seg := range s.Segments {
		k.Add(m.EnergyForTime(seg.Duration(), seg.Frequency))
	}
	return k.Value()
}

// BusyTime returns the total core-busy time (the Σ of all segment
// durations), i.e. the time multiplied by static power in the energy.
func (s *Schedule) BusyTime() float64 {
	var k numeric.KahanSum
	for _, seg := range s.Segments {
		k.Add(seg.Duration())
	}
	return k.Value()
}

// Makespan returns the latest segment end, or 0 for an empty schedule.
func (s *Schedule) Makespan() float64 {
	var m float64
	for _, seg := range s.Segments {
		if seg.End > m {
			m = seg.End
		}
	}
	return m
}

// ValidationError describes one feasibility violation found by Validate.
type ValidationError struct {
	Kind   string // "core-overlap", "task-parallel", "window", "work", "frequency", "core-range", "task-range"
	Detail string
}

func (e ValidationError) Error() string { return e.Kind + ": " + e.Detail }

// Validate checks the schedule against the constraints of Section III.C:
//
//  1. every segment runs a known task on a valid core at positive
//     frequency;
//  2. segments on the same core do not overlap (one task per core);
//  3. segments of the same task do not overlap (no intra-task
//     parallelism — a task occupies at most one core at any instant);
//  4. every segment lies inside its task's [R_i, D_i] window;
//  5. every task completes exactly its execution requirement C_i
//     (within tolerance tol; completing more than C_i is allowed when
//     allowOverwork is set, since running faster than strictly necessary
//     never breaks timing).
//
// All violations found are returned, not just the first.
//
// check.Validate is the feasibility checker every scheduler and server
// path uses. This older copy is kept only because the benchmark's trace
// replay (perfbench/trace.go) still times it; delete it, together with
// ValidationError and core.Options.SkipValidation, in the change that
// moves that replay off it.
func (s *Schedule) Validate(tol float64, allowOverwork bool) []ValidationError {
	if tol <= 0 {
		tol = 1e-6
	}
	var errs []ValidationError
	add := func(kind, format string, args ...any) {
		errs = append(errs, ValidationError{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	for _, seg := range s.Segments {
		if seg.Task < 0 || seg.Task >= len(s.Tasks) {
			add("task-range", "segment %v references unknown task", seg)
			continue
		}
		if seg.Core < 0 || seg.Core >= s.Cores {
			add("core-range", "segment %v uses core outside 0..%d", seg, s.Cores-1)
		}
		if !(seg.Frequency > 0) || math.IsInf(seg.Frequency, 0) || math.IsNaN(seg.Frequency) {
			add("frequency", "segment %v has invalid frequency", seg)
		}
		tk := s.Tasks[seg.Task]
		if seg.Start < tk.Release-tol || seg.End > tk.Deadline+tol {
			add("window", "segment %v outside window [%g, %g]", seg, tk.Release, tk.Deadline)
		}
	}

	// Per-core overlap.
	segs := s.sortSegments()
	for i := 1; i < len(segs); i++ {
		a, b := segs[i-1], segs[i]
		if a.Core == b.Core && b.Start < a.End-tol {
			add("core-overlap", "%v overlaps %v on core %d", a, b, a.Core)
		}
	}

	// Per-task overlap (no task on two cores at once).
	for id, tsegs := range s.byTask() {
		for i := 1; i < len(tsegs); i++ {
			if tsegs[i].Start < tsegs[i-1].End-tol {
				add("task-parallel", "task %d segments %v and %v overlap in time", id, tsegs[i-1], tsegs[i])
			}
		}
	}

	// Work completion.
	done := s.CompletedWork()
	for _, tk := range s.Tasks {
		w := done[tk.ID]
		rel := tol * math.Max(1, tk.Work)
		switch {
		case w < tk.Work-rel:
			add("work", "task %d completed %g of %g", tk.ID, w, tk.Work)
		case w > tk.Work+rel && !allowOverwork:
			add("work", "task %d over-executed: %g of %g", tk.ID, w, tk.Work)
		}
	}
	return errs
}

// TaskFrequencies returns the set of distinct frequencies used by each
// task, useful for asserting the equal-frequency property of Observation 1.
func (s *Schedule) TaskFrequencies() map[int][]float64 {
	out := make(map[int][]float64)
	for id, segs := range s.byTask() {
		seen := make(map[float64]bool)
		for _, seg := range segs {
			if !seen[seg.Frequency] {
				seen[seg.Frequency] = true
				out[id] = append(out[id], seg.Frequency)
			}
		}
		sort.Float64s(out[id])
	}
	return out
}
