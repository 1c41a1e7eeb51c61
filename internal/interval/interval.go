// Package interval implements the subinterval decomposition at the heart
// of the paper's approach (Section IV): the time axis between the earliest
// release R̄ and the latest deadline D̄ is cut at every distinct release
// time and deadline into N−1 subintervals, and each subinterval is
// classified by how many tasks overlap it relative to the core count.
package interval

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/task"
)

// Subinterval is one cell [Start, End] of the decomposition, together with
// the overlap analysis against a fixed task set.
type Subinterval struct {
	// Index is the position j of the subinterval, 0-based.
	Index int
	// Start and End delimit the subinterval [t_j, t_{j+1}].
	Start, End float64
	// Overlapping lists the IDs of tasks whose window [R_i, D_i] contains
	// the whole subinterval, in ascending ID order ("overlapping tasks
	// during a subinterval", Section IV.B).
	Overlapping []int
}

// Length returns End − Start.
func (s Subinterval) Length() float64 { return s.End - s.Start }

// Count returns n_j, the number of overlapping tasks.
func (s Subinterval) Count() int { return len(s.Overlapping) }

// HeavyFor reports whether the subinterval is heavily overlapped for an
// m-core processor: n_j > m.
func (s Subinterval) HeavyFor(m int) bool { return len(s.Overlapping) > m }

// Capacity returns the total core time available during the subinterval on
// m cores: m·(t_{j+1} − t_j).
func (s Subinterval) Capacity(m int) float64 { return float64(m) * s.Length() }

func (s Subinterval) String() string {
	return fmt.Sprintf("[%g, %g] n_j=%d", s.Start, s.End, len(s.Overlapping))
}

// Decomposition is the full subinterval structure for a task set.
type Decomposition struct {
	// Tasks is the task set the decomposition was built from.
	Tasks task.Set
	// Points are the boundaries t_1 < ... < t_N.
	Points []float64
	// Subs are the N−1 subintervals in time order.
	Subs []Subinterval

	// first[i] and last[i] bound task i's eligible subintervals — the
	// x_{i,j} ≠ 0 pattern of Eq. (13). A task window covers a contiguous
	// ascending run of subintervals (releases cut on the left, deadlines
	// on the right), so the pattern is fully described by its endpoints;
	// first[i] > last[i] encodes an empty run.
	first, last []int
	// seq is the shared index sequence 0..N−2; SubsOf returns subslices
	// of it so no per-task index slices are allocated.
	seq []int
	// overlap backs every subinterval's Overlapping list.
	overlap []int
}

// Decompose builds the decomposition. Boundary values closer than tol are
// merged (tol <= 0 means exact distinctness; pass a small epsilon for
// float-generated workloads).
func Decompose(ts task.Set, tol float64) (*Decomposition, error) {
	d := new(Decomposition)
	if err := DecomposeInto(d, ts, tol); err != nil {
		return nil, err
	}
	return d, nil
}

// DecomposeInto is Decompose building into d, whose buffers it reuses:
// whatever d held before, and every slice it handed out, is
// overwritten. A solver that decomposes instance after instance and
// lets no decomposition outlive the next keeps one d for all of them.
func DecomposeInto(d *Decomposition, ts task.Set, tol float64) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	pts := slices.Grow(d.Points[:0], 2*len(ts))
	for _, t := range ts {
		pts = append(pts, t.Release, t.Deadline)
	}
	pts = task.MergePoints(pts, tol)
	if len(pts) < 2 {
		return fmt.Errorf("interval: degenerate decomposition with %d points", len(pts))
	}
	nsubs := len(pts) - 1
	d.Tasks, d.Points = ts, pts
	d.Subs = slices.Grow(d.Subs[:0], nsubs)[:nsubs]
	d.first = slices.Grow(d.first[:0], len(ts))[:len(ts)]
	d.last = slices.Grow(d.last[:0], len(ts))[:len(ts)]
	// seq first holds the difference array of the overlap counts, then
	// the counts, and last the index sequence it is named for.
	seq := slices.Grow(d.seq[:0], nsubs)[:nsubs]
	clear(seq)
	d.seq = seq
	for j := range d.Subs {
		d.Subs[j] = Subinterval{Index: j, Start: pts[j], End: pts[j+1]}
	}
	// With merged boundaries a task window may start/end strictly inside
	// a subinterval only by less than tol; treat the task as overlapping
	// when its window covers the midpoint-snapped boundaries. The two
	// conditions are monotone in j (starts and ends both ascend), so the
	// eligible run is [first, last] with the endpoints found by binary
	// search over the boundary arrays.
	for i, t := range ts {
		// first: smallest j with Release ≤ Start_j + tol.
		lo := sort.Search(nsubs, func(j int) bool { return t.Release <= d.Subs[j].Start+tol })
		// last: largest j with End_j − tol ≤ Deadline.
		hi := sort.Search(nsubs, func(j int) bool { return d.Subs[j].End-tol > t.Deadline }) - 1
		d.first[i], d.last[i] = lo, hi
		if lo <= hi {
			seq[lo]++
			if hi+1 < nsubs {
				seq[hi+1]--
			}
		}
	}
	total := 0
	for j := range seq {
		if j > 0 {
			seq[j] += seq[j-1]
		}
		total += seq[j]
	}
	// Carve every subinterval's Overlapping list (ascending task IDs, as
	// tasks are visited in ID order) out of one shared backing array.
	backing := slices.Grow(d.overlap[:0], total)[:total]
	d.overlap = backing
	off := 0
	for j := range d.Subs {
		d.Subs[j].Overlapping = backing[off : off : off+seq[j]]
		off += seq[j]
		seq[j] = j
	}
	for i := range ts {
		for j := d.first[i]; j <= d.last[i]; j++ {
			d.Subs[j].Overlapping = append(d.Subs[j].Overlapping, ts[i].ID)
		}
	}
	return nil
}

// MustDecompose is Decompose but panics on error.
func MustDecompose(ts task.Set, tol float64) *Decomposition {
	d, err := Decompose(ts, tol)
	if err != nil {
		panic(err)
	}
	return d
}

// NumSubs returns the number of subintervals (N−1).
func (d *Decomposition) NumSubs() int { return len(d.Subs) }

// Eligible reports whether task i may execute during subinterval j.
func (d *Decomposition) Eligible(i, j int) bool { return d.first[i] <= j && j <= d.last[i] }

// SubsOf returns the indices of the subintervals inside task i's window,
// in time order. The returned slice must not be modified.
func (d *Decomposition) SubsOf(i int) []int {
	if d.first[i] > d.last[i] {
		return nil
	}
	return d.seq[d.first[i] : d.last[i]+1]
}

// FirstSub returns the index of the first subinterval inside task i's
// window (the offset of SubsOf(i) within 0..NumSubs−1). Solvers that lay
// per-task per-subinterval quantities out densely use it to translate a
// global subinterval index j into the task-local position j − FirstSub(i).
func (d *Decomposition) FirstSub(i int) int { return d.first[i] }

// Heavy returns the indices of the heavily overlapped subintervals for m
// cores (n_j > m), in time order.
func (d *Decomposition) Heavy(m int) []int {
	var out []int
	for j, s := range d.Subs {
		if s.HeavyFor(m) {
			out = append(out, j)
		}
	}
	return out
}

// MaxOverlap returns max_j n_j, the peak number of concurrently feasible
// tasks (the n^max of the S^I1 energy bound).
func (d *Decomposition) MaxOverlap() int {
	var m int
	for _, s := range d.Subs {
		if s.Count() > m {
			m = s.Count()
		}
	}
	return m
}

// Locate returns the subinterval index containing time t (boundaries
// belong to the subinterval on their right, except t = D̄ which belongs to
// the last). ok is false when t is outside [R̄, D̄].
func (d *Decomposition) Locate(t float64) (int, bool) {
	pts := d.Points
	if t < pts[0] || t > pts[len(pts)-1] {
		return 0, false
	}
	if t == pts[len(pts)-1] {
		return len(d.Subs) - 1, true
	}
	// First boundary strictly greater than t, minus one.
	j := sort.SearchFloat64s(pts, t)
	if j < len(pts) && pts[j] == t {
		return j, true
	}
	return j - 1, true
}

// OverlapLength returns |[lo,hi] ∩ [Start,End]|, the overlap between an
// arbitrary interval and subinterval j.
func (d *Decomposition) OverlapLength(j int, lo, hi float64) float64 {
	s := d.Subs[j]
	a := lo
	if s.Start > a {
		a = s.Start
	}
	b := hi
	if s.End < b {
		b = s.End
	}
	if b <= a {
		return 0
	}
	return b - a
}

// TotalLength returns D̄ − R̄.
func (d *Decomposition) TotalLength() float64 {
	return d.Points[len(d.Points)-1] - d.Points[0]
}
