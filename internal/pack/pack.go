// Package pack implements Algorithm 1 of the paper: the McNaughton-style
// wrap-around rule that turns per-task execution-time allocations within
// one subinterval into a collision-free assignment of (core, time slot)
// pairs, splitting a task into at most two pieces when it wraps across the
// subinterval boundary of a core.
//
// The rule is safe because each task's allocation never exceeds the
// subinterval length: the wrapped head and tail can then never overlap in
// time, so no task runs on two cores simultaneously.
package pack

import (
	"fmt"

	"repro/internal/numeric"
)

// Piece is one packed execution slot within a subinterval.
type Piece struct {
	Task  int     // task ID
	Core  int     // core index
	Start float64 // absolute start time
	End   float64 // absolute end time
}

// Request is one task's allocated execution time within the subinterval.
type Request struct {
	Task int
	Time float64
}

// Interval packs the requests into the subinterval [start, end] on m
// cores, following Algorithm 1: fill core k from its earliest available
// time P_k; when a task does not fit before the subinterval boundary, the
// overflow wraps to the beginning of the next core.
//
// Preconditions (validated): each request's time lies in [0, end−start],
// and Σ times ≤ m·(end−start). Zero-time requests produce no pieces.
func Interval(start, end float64, m int, reqs []Request) ([]Piece, error) {
	return AppendInterval(nil, start, end, m, reqs)
}

// AppendInterval is Interval appending into dst, so a caller packing many
// subintervals in a row can reuse one buffer instead of allocating pieces
// per subinterval. On error the returned slice is dst unchanged.
func AppendInterval(dst []Piece, start, end float64, m int, reqs []Request) ([]Piece, error) {
	length := end - start
	if length <= 0 {
		return dst, fmt.Errorf("pack: empty subinterval [%g, %g]", start, end)
	}
	if m <= 0 {
		return dst, fmt.Errorf("pack: need at least one core, have %d", m)
	}
	var total numeric.KahanSum
	for _, r := range reqs {
		if r.Time < 0 {
			return dst, fmt.Errorf("pack: task %d has negative time %g", r.Task, r.Time)
		}
		if r.Time > length*(1+1e-9) {
			return dst, fmt.Errorf("pack: task %d time %g exceeds subinterval length %g", r.Task, r.Time, length)
		}
		total.Add(r.Time)
	}
	if total.Value() > float64(m)*length*(1+1e-9) {
		return dst, fmt.Errorf("pack: total time %g exceeds capacity %g", total.Value(), float64(m)*length)
	}

	pieces := dst
	core := 0
	// cursor is the next free time on the current core, relative to start.
	cursor := 0.0
	emit := func(task int, from, to float64) {
		if to-from <= 0 {
			return
		}
		pieces = append(pieces, Piece{Task: task, Core: core, Start: start + from, End: start + to})
	}
	for _, r := range reqs {
		t := r.Time
		if t > length {
			t = length // tolerate the 1e-9 slack admitted above
		}
		if t == 0 {
			continue
		}
		if cursor+t > length+1e-12 {
			// Wrap: the tail [cursor, length] stays on this core; the head
			// spills to the start of the next core. Algorithm 1 schedules
			// the "first part" on the next core from t_j and the "second
			// part" on the current core up to t_{j+1}; the two pieces
			// cannot overlap because head = cursor + t − length ≤ cursor
			// (as t ≤ length), so [0, head) and [cursor, length) are
			// disjoint in time.
			head := cursor + t - length
			emit(r.Task, cursor, length)
			core++
			if core >= m {
				return dst, fmt.Errorf("pack: ran out of cores packing task %d (capacity check raced tolerance)", r.Task)
			}
			cursor = 0
			emit(r.Task, 0, head)
			cursor = head
		} else {
			emit(r.Task, cursor, cursor+t)
			cursor += t
			// Snap to the boundary so accumulated error cannot push a
			// later wrap head past its own tail.
			if cursor > length {
				cursor = length
			}
		}
		if cursor >= length-1e-12 && core < m-1 {
			core++
			cursor = 0
		}
	}
	return pieces, nil
}
