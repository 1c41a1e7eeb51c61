// Package alloc implements the two available-execution-time allocation
// policies of Section V: the evenly allocating method and the DER-based
// allocating method (Algorithm 2). Both produce, for every subinterval,
// the available execution time granted to each overlapping task; lightly
// overlapped subintervals always grant the full subinterval length to
// every overlapping task (Observation 2).
package alloc

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ideal"
	"repro/internal/interval"
	"repro/internal/numeric"
)

// Method selects the allocation policy for heavily overlapped
// subintervals.
type Method int

const (
	// Even grants each of the n_j overlapping tasks m·len/n_j
	// (Section V.B).
	Even Method = iota
	// DER grants time proportional to each task's Desired Execution
	// Requirement, processed in descending DER order with per-task cap len
	// and renormalization after a cap binds (Algorithm 2, Section V.C).
	DER
	// DERAscending processes tasks in ascending DER order instead; this is
	// not in the paper and exists for the ablation quantifying the
	// "greatest DER first" design choice.
	DERAscending
)

func (m Method) String() string {
	switch m {
	case Even:
		return "even"
	case DER:
		return "der"
	case DERAscending:
		return "der-ascending"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Allocation is the result of running a policy over a decomposition.
// Grants are stored densely per task, aligned with the decomposition's
// contiguous eligibility runs, so building one performs no per-subinterval
// map allocations.
type Allocation struct {
	Method Method
	Cores  int
	// grants[i][k] is the grant of task i during its k-th eligible
	// subinterval (global index first[i]+k); all rows share one backing
	// array.
	grants [][]float64
	// first[i] is the global index of task i's first eligible subinterval.
	first []int
	// backing is the array the grant rows share.
	backing []float64
	// Total[i] is A_i, task i's total available execution time across all
	// subintervals.
	Total []float64
}

// Grant returns the available time of task i during subinterval j.
func (a *Allocation) Grant(i, j int) float64 {
	k := j - a.first[i]
	if k < 0 || k >= len(a.grants[i]) {
		return 0
	}
	return a.grants[i][k]
}

// Grants returns task i's per-subinterval grants aligned with
// Decomposition.SubsOf(i). The returned slice must not be modified.
func (a *Allocation) Grants(i int) []float64 { return a.grants[i] }

// Builder runs allocation policies while reusing its internal scratch
// (DER sort buffers, per-task accumulators) across calls, so a serving
// loop allocates only the Allocation it returns. The zero value is ready
// to use; a Builder must not be used concurrently.
type Builder struct {
	sorter derSorter
	totals []numeric.KahanSum
}

// Build runs the chosen policy. The ideal plan is required only for the
// DER-based methods; Even accepts a nil plan.
func Build(d *interval.Decomposition, m int, method Method, plan *ideal.Plan) (*Allocation, error) {
	var b Builder
	return b.Build(d, m, method, plan)
}

// Build runs the chosen policy, reusing the builder's scratch buffers.
func (b *Builder) Build(d *interval.Decomposition, m int, method Method, plan *ideal.Plan) (*Allocation, error) {
	a := new(Allocation)
	if err := b.BuildInto(a, d, m, method, plan); err != nil {
		return nil, err
	}
	return a, nil
}

// BuildInto is Build allocating into a, whose tables it reuses: whatever
// a held before, and every slice it handed out, is overwritten.
func (b *Builder) BuildInto(a *Allocation, d *interval.Decomposition, m int, method Method, plan *ideal.Plan) error {
	if m <= 0 {
		return fmt.Errorf("alloc: need at least one core, have %d", m)
	}
	if (method == DER || method == DERAscending) && plan == nil {
		return fmt.Errorf("alloc: %v allocation needs the ideal plan", method)
	}
	n := len(d.Tasks)
	a.Method, a.Cores = method, m
	a.grants = slices.Grow(a.grants[:0], n)[:n]
	a.first = slices.Grow(a.first[:0], n)[:n]
	a.Total = slices.Grow(a.Total[:0], n)[:n]
	total := 0
	for i := 0; i < n; i++ {
		a.first[i] = d.FirstSub(i)
		total += len(d.SubsOf(i))
	}
	backing := slices.Grow(a.backing[:0], total)[:total]
	clear(backing)
	a.backing = backing
	off := 0
	for i := 0; i < n; i++ {
		w := len(d.SubsOf(i))
		a.grants[i] = backing[off : off+w]
		off += w
	}

	if cap(b.totals) < n {
		b.totals = make([]numeric.KahanSum, n)
	}
	totals := b.totals[:n]
	for i := range totals {
		totals[i] = numeric.KahanSum{}
	}
	set := func(id, j int, g float64) {
		a.grants[id][j-a.first[id]] = g
		totals[id].Add(g)
	}
	for j := range d.Subs {
		sub := &d.Subs[j]
		if !sub.HeavyFor(m) {
			// Observation 2: every overlapping task may occupy a core for
			// the whole subinterval.
			length := sub.Length()
			for _, id := range sub.Overlapping {
				set(id, j, length)
			}
			continue
		}
		switch method {
		case Even:
			share := sub.Capacity(m) / float64(sub.Count())
			for _, id := range sub.Overlapping {
				set(id, j, share)
			}
		case DER, DERAscending:
			b.allocDER(d, plan, j, m, method == DERAscending, set)
		default:
			return fmt.Errorf("alloc: unknown method %v", method)
		}
	}
	for i := range totals {
		a.Total[i] = totals[i].Value()
	}
	return nil
}

// MustBuild is Build but panics on error.
func MustBuild(d *interval.Decomposition, m int, method Method, plan *ideal.Plan) *Allocation {
	a, err := Build(d, m, method, plan)
	if err != nil {
		panic(err)
	}
	return a
}

// derSorter stable-sorts (id, der) pairs by DER without allocating: the
// buffers live in the Builder and the sort.Interface dispatch happens
// through a pointer, so sort.Stable performs no per-call boxing.
type derSorter struct {
	ids       []int
	ders      []float64
	ascending bool
}

func (s *derSorter) Len() int { return len(s.ids) }
func (s *derSorter) Less(a, b int) bool {
	if s.ascending {
		return s.ders[a] < s.ders[b]
	}
	return s.ders[a] > s.ders[b]
}
func (s *derSorter) Swap(a, b int) {
	s.ids[a], s.ids[b] = s.ids[b], s.ids[a]
	s.ders[a], s.ders[b] = s.ders[b], s.ders[a]
}

// allocDER implements Algorithm 2 for one heavily overlapped subinterval.
// Tasks are processed in descending (or, for the ablation, ascending) DER
// order. Each task is offered the proportional share
// DER_i/C_rem · cap_rem of the remaining core capacity, clamped to the
// subinterval length; both remainders shrink as tasks are served, which
// renormalizes the shares after a clamp binds — exactly the arithmetic of
// the paper's [12,14] example (allocations 2, 1.9231, 1.5385, 1.3846,
// 1.1538).
func (b *Builder) allocDER(d *interval.Decomposition, plan *ideal.Plan, j, m int, ascending bool, set func(id, j int, g float64)) {
	sub := &d.Subs[j]
	length := sub.Length()
	nj := sub.Count()
	if cap(b.sorter.ids) < nj {
		b.sorter.ids = make([]int, nj)
		b.sorter.ders = make([]float64, nj)
	}
	b.sorter.ids = b.sorter.ids[:nj]
	b.sorter.ders = b.sorter.ders[:nj]
	b.sorter.ascending = ascending
	var totalDER float64
	for k, id := range sub.Overlapping {
		der := plan.DER(d, id, j)
		b.sorter.ids[k] = id
		b.sorter.ders[k] = der
		totalDER += der
	}
	sort.Stable(&b.sorter)
	capRem := sub.Capacity(m)
	derRem := totalDER
	for k := 0; k < nj; k++ {
		id, der := b.sorter.ids[k], b.sorter.ders[k]
		if der <= 0 || derRem <= 0 || capRem <= 0 {
			set(id, j, 0)
			continue
		}
		share := der / derRem * capRem
		if share > length {
			share = length
		}
		set(id, j, share)
		capRem -= share
		derRem -= der
	}
}
