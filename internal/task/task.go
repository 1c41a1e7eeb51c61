// Package task defines the aperiodic task model of the paper and the
// random workload generators used throughout the evaluation.
//
// A task τ_i = (R_i, C_i, D_i) is characterized by its release time R_i,
// execution requirement C_i (work, expressed in cycles at unit frequency),
// and absolute deadline D_i. Tasks are independent, preemptive, and may
// migrate between cores.
package task

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Task is one aperiodic task instance.
type Task struct {
	// ID identifies the task inside its set; generators and parsers assign
	// IDs 0..n-1 in slice order.
	ID int
	// Release is the earliest time the task may execute (R_i).
	Release float64
	// Work is the execution requirement C_i: the amount of computation,
	// normalized so that running at frequency f for time t completes f·t
	// units of work.
	Work float64
	// Deadline is the absolute completion deadline D_i.
	Deadline float64
}

// Window returns the length of the task's feasible window, D_i - R_i.
func (t Task) Window() float64 { return t.Deadline - t.Release }

// Intensity returns C_i/(D_i-R_i), the minimum constant frequency at which
// the task can complete when given its whole window exclusively.
func (t Task) Intensity() float64 { return t.Work / t.Window() }

// Contains reports whether the closed interval [lo, hi] lies within the
// task's feasible window [Release, Deadline].
func (t Task) Contains(lo, hi float64) bool {
	return t.Release <= lo && hi <= t.Deadline
}

// Validate reports an error when the task is malformed: non-finite fields,
// non-positive work, or an empty window.
func (t Task) Validate() error {
	for _, v := range []float64{t.Release, t.Work, t.Deadline} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("task %d: non-finite parameter", t.ID)
		}
	}
	if t.Work <= 0 {
		return fmt.Errorf("task %d: work %g must be positive", t.ID, t.Work)
	}
	if t.Deadline <= t.Release {
		return fmt.Errorf("task %d: empty window [%g, %g]", t.ID, t.Release, t.Deadline)
	}
	return nil
}

func (t Task) String() string {
	return fmt.Sprintf("τ%d(R=%g, C=%g, D=%g)", t.ID, t.Release, t.Work, t.Deadline)
}

// Set is an ordered collection of tasks. Task IDs always equal the slice
// index after Renumber or any constructor in this package.
type Set []Task

// ErrEmptySet is returned when an operation requires at least one task.
var ErrEmptySet = errors.New("task: empty task set")

// New builds a Set from (release, work, deadline) triples, assigning IDs in
// order, and validates it.
func New(triples ...[3]float64) (Set, error) {
	s := make(Set, len(triples))
	for i, tr := range triples {
		s[i] = Task{ID: i, Release: tr[0], Work: tr[1], Deadline: tr[2]}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New but panics on invalid input; intended for tests and
// fixtures transcribed from the paper.
func MustNew(triples ...[3]float64) Set {
	s, err := New(triples...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks every task and the ID numbering invariant.
func (s Set) Validate() error {
	if len(s) == 0 {
		return ErrEmptySet
	}
	for i, t := range s {
		if t.ID != i {
			return fmt.Errorf("task at index %d has ID %d; call Renumber", i, t.ID)
		}
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Renumber rewrites IDs to match slice positions.
func (s Set) Renumber() {
	for i := range s {
		s[i].ID = i
	}
}

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Span returns the earliest release and the latest deadline across the set
// (the paper's R̄ and D̄). It panics on an empty set.
func (s Set) Span() (earliest, latest float64) {
	if len(s) == 0 {
		panic(ErrEmptySet)
	}
	earliest = math.Inf(1)
	latest = math.Inf(-1)
	for _, t := range s {
		earliest = math.Min(earliest, t.Release)
		latest = math.Max(latest, t.Deadline)
	}
	return earliest, latest
}

// TotalWork returns the sum of execution requirements.
func (s Set) TotalWork() float64 {
	var sum float64
	for _, t := range s {
		sum += t.Work
	}
	return sum
}

// MaxIntensity returns the largest single-task intensity in the set.
func (s Set) MaxIntensity() float64 {
	var m float64
	for _, t := range s {
		if in := t.Intensity(); in > m {
			m = in
		}
	}
	return m
}

// TimePoints returns all distinct release times and deadlines in ascending
// order: the subinterval boundaries t_1 < t_2 < ... < t_N of Section IV.
// Values closer than tol are merged (tol <= 0 means exact distinctness).
func (s Set) TimePoints(tol float64) []float64 {
	pts := make([]float64, 0, 2*len(s))
	for _, t := range s {
		pts = append(pts, t.Release, t.Deadline)
	}
	pts = MergePoints(pts, tol)
	// Copy so the result does not alias the scratch slice's backing array
	// in a surprising way for callers that append to it.
	res := make([]float64, len(pts))
	copy(res, pts)
	return res
}

// MergePoints sorts pts in place and merges values closer than tol into
// the first of them, as TimePoints does; it returns the merged prefix
// of pts.
func MergePoints(pts []float64, tol float64) []float64 {
	sort.Float64s(pts)
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || p-out[len(out)-1] > tol {
			out = append(out, p)
		}
	}
	return out
}

// SortedByDeadline returns a copy of the set ordered by increasing
// deadline (EDF order), with ties broken by release then ID. IDs are
// preserved, not renumbered, so the result maps back to the original set.
func (s Set) SortedByDeadline() Set {
	out := s.Clone()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Deadline != out[j].Deadline {
			return out[i].Deadline < out[j].Deadline
		}
		if out[i].Release != out[j].Release {
			return out[i].Release < out[j].Release
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Fig1Example returns the three-task instance of the paper's Fig. 1(a)
// used to introduce the YDS algorithm: R = (0, 2, 4), D = (12, 10, 8),
// C = (4, 2, 4).
func Fig1Example() Set {
	return MustNew(
		[3]float64{0, 4, 12},
		[3]float64{2, 2, 10},
		[3]float64{4, 4, 8},
	)
}

// SectionVDExample returns the six-task instance of Section V.D (Fig. 4),
// written there as τ_i = (R_i, C_i, D_i):
// (0,8,10), (2,14,18), (4,8,16), (6,4,14), (8,10,20), (12,6,22).
func SectionVDExample() Set {
	return MustNew(
		[3]float64{0, 8, 10},
		[3]float64{2, 14, 18},
		[3]float64{4, 8, 16},
		[3]float64{6, 4, 14},
		[3]float64{8, 10, 20},
		[3]float64{12, 6, 22},
	)
}
