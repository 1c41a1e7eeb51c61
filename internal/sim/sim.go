// Package sim is a discrete-event execution simulator for multi-core DVFS
// schedules. It replays a schedule's segments through an event queue,
// maintaining per-core occupancy and per-task progress, and produces an
// execution report: energy integrated from the power model, per-core
// utilization, task completion times, preemption/migration counts, and
// any runtime violations (core conflicts, work shortfalls, deadline
// overruns).
//
// The simulator deliberately shares no code with schedule.Validate — it
// is an independent check that the analytically constructed schedules
// actually execute: every invariant is re-derived from the event
// semantics rather than from interval arithmetic.
//
// Energy is summed per segment, in segment order, over the segments the
// simulator accepts. Accumulating it at end events instead would add the
// terms in heap pop order, which breaks (t, kind) ties in a way no
// linear pass can reproduce; in segment order, the guardrail audit's
// execution profile (check.Profile) sums the same terms in the same
// order and agrees with Run bit for bit.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/power"
	"repro/internal/schedule"
)

// eventKind orders simultaneous events: ends before starts, so
// back-to-back segments on one core do not report a spurious conflict.
type eventKind int32

const (
	evEnd eventKind = iota
	evStart
)

// eventNode is one start or end event of the segment at index idx of
// the schedule being run.
type eventNode struct {
	t    float64
	idx  int32
	kind eventKind
}

// eventQueue is a binary min-heap of events ordered by (t, kind). init,
// pop and down follow container/heap's Init, Pop and down step for step,
// so events that tie on (t, kind) pop in the order container/heap would
// give them, without boxing every popped event in an interface.
type eventQueue []eventNode

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].kind < q[j].kind
}

func (q eventQueue) init() {
	n := len(q)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n)
	}
}

func (q *eventQueue) pop() eventNode {
	old := *q
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*q = old[:n]
	return old[n]
}

func (q eventQueue) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// Report is the outcome of a simulated execution.
type Report struct {
	// Energy integrated from p(f) over every executed segment, summed
	// in segment order.
	Energy float64
	// Horizon is the simulated time span [start of first segment, end of
	// last segment].
	Horizon float64
	// CoreBusy[k] is the total busy time of core k.
	CoreBusy []float64
	// Utilization[k] is CoreBusy[k]/Horizon (0 when the horizon is empty).
	Utilization []float64
	// Completion[i] is the time task i finished its work (NaN if it never
	// completed in the simulated schedule).
	Completion []float64
	// Preemptions counts task stops with work remaining.
	Preemptions int
	// Migrations counts task resumptions on a different core.
	Migrations int
	// Wakeups counts core sleep→active transitions: a segment starting
	// on a core that was idle (including each core's first segment). The
	// paper assumes these are free; EnergyWithWakeups prices them.
	Wakeups int
	// Violations lists everything that went wrong during execution.
	Violations []string
}

// EnergyWithWakeups returns the execution energy plus a per-transition
// overhead: Energy + wakeEnergy·Wakeups. This quantifies how schedules
// with many short slivers (heavy preemption) degrade once the paper's
// free-sleep idealization is relaxed.
func (r *Report) EnergyWithWakeups(wakeEnergy float64) float64 {
	return r.Energy + wakeEnergy*float64(r.Wakeups)
}

// OK reports whether the execution completed without violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// ResponseTimes returns completion − release per task (NaN for tasks that
// never completed). Response time is the latency metric a soft-real-time
// consumer of the schedule would care about alongside energy.
func (r *Report) ResponseTimes(ts []float64) []float64 {
	out := make([]float64, len(r.Completion))
	for i, c := range r.Completion {
		if i < len(ts) {
			out[i] = c - ts[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// Run simulates the schedule under the power model.
func Run(s *schedule.Schedule, pm power.Model) (*Report, error) {
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	n := len(s.Tasks)
	rep := &Report{
		CoreBusy:    make([]float64, s.Cores),
		Utilization: make([]float64, s.Cores),
		Completion:  make([]float64, n),
	}
	for i := range rep.Completion {
		rep.Completion[i] = math.NaN()
	}
	if len(s.Segments) == 0 {
		for _, tk := range s.Tasks {
			rep.Violations = append(rep.Violations, fmt.Sprintf("task %d never executed", tk.ID))
		}
		return rep, nil
	}

	q := make(eventQueue, 0, 2*len(s.Segments))
	for i, seg := range s.Segments {
		if seg.Core < 0 || seg.Core >= s.Cores {
			rep.Violations = append(rep.Violations, fmt.Sprintf("segment %v on unknown core", seg))
			continue
		}
		if seg.Task < 0 || seg.Task >= n {
			rep.Violations = append(rep.Violations, fmt.Sprintf("segment %v for unknown task", seg))
			continue
		}
		rep.Energy += pm.EnergyForTime(seg.Duration(), seg.Frequency)
		q = append(q, eventNode{t: seg.Start, idx: int32(i), kind: evStart})
		q = append(q, eventNode{t: seg.End, idx: int32(i), kind: evEnd})
	}
	q.init()

	const eps = 1e-9
	coreTask := make([]int, s.Cores) // -1 when idle
	coreEnd := make([]float64, s.Cores)
	coreEverUsed := make([]bool, s.Cores)
	for k := range coreTask {
		coreTask[k] = -1
	}
	taskOnCore := make([]int, n) // -1 when not running
	taskEnd := make([]float64, n)
	lastCore := make([]int, n) // core of the previous execution, -1 initially
	everRan := make([]bool, n)
	remaining := make([]float64, n)
	for i, tk := range s.Tasks {
		remaining[i] = tk.Work
		taskOnCore[i] = -1
		lastCore[i] = -1
	}

	start := s.Segments[0].Start
	end := s.Segments[0].End
	for _, seg := range s.Segments {
		if seg.Start < start {
			start = seg.Start
		}
		if seg.End > end {
			end = seg.End
		}
	}
	rep.Horizon = end - start

	for len(q) > 0 {
		ev := q.pop()
		seg := s.Segments[ev.idx]
		id := seg.Task
		switch ev.kind {
		case evStart:
			tk := s.Tasks[id]
			if seg.Start < tk.Release-eps {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%v starts before release %g", seg, tk.Release))
			}
			if seg.End > tk.Deadline+eps {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%v runs past deadline %g", seg, tk.Deadline))
			}
			if occ := coreTask[seg.Core]; occ != -1 {
				// Tolerate sub-epsilon overhang from float arithmetic: the
				// occupying segment's own end event is about to fire.
				if coreEnd[seg.Core] <= seg.Start+eps {
					coreTask[seg.Core] = -1
				} else {
					rep.Violations = append(rep.Violations, fmt.Sprintf("core %d busy with task %d when %v starts", seg.Core, occ, seg))
				}
			}
			if on := taskOnCore[id]; on != -1 {
				if taskEnd[id] <= seg.Start+eps {
					taskOnCore[id] = -1
				} else {
					rep.Violations = append(rep.Violations, fmt.Sprintf("task %d already running on core %d when %v starts", id, on, seg))
				}
			}
			// A start on a core whose previous segment ended strictly
			// earlier (or that never ran) is a sleep→active transition.
			if coreEnd[seg.Core] == 0 && !coreEverUsed[seg.Core] {
				rep.Wakeups++
				coreEverUsed[seg.Core] = true
			} else if seg.Start > coreEnd[seg.Core]+eps {
				rep.Wakeups++
			}
			coreTask[seg.Core] = id
			coreEnd[seg.Core] = seg.End
			taskOnCore[id] = seg.Core
			taskEnd[id] = seg.End
			if everRan[id] && lastCore[id] != seg.Core {
				rep.Migrations++
			}
			everRan[id] = true
			lastCore[id] = seg.Core
		case evEnd:
			if coreTask[seg.Core] == id {
				coreTask[seg.Core] = -1
			}
			if taskOnCore[id] == seg.Core {
				taskOnCore[id] = -1
			}
			dur := seg.Duration()
			rep.CoreBusy[seg.Core] += dur
			before := remaining[id]
			remaining[id] -= seg.Work()
			if before > eps && remaining[id] <= eps && math.IsNaN(rep.Completion[id]) {
				// Completion lands inside this segment; interpolate.
				over := -remaining[id]
				frac := 0.0
				if seg.Work() > 0 {
					frac = over / seg.Work()
				}
				rep.Completion[id] = seg.End - frac*dur
			}
			if remaining[id] > eps {
				rep.Preemptions++
			}
		}
	}

	for i, tk := range s.Tasks {
		if remaining[i] > 1e-6*math.Max(1, tk.Work) {
			rep.Violations = append(rep.Violations, fmt.Sprintf("task %d finished with %g work remaining", i, remaining[i]))
		}
		if c := rep.Completion[i]; !math.IsNaN(c) && c > tk.Deadline+1e-6 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("task %d completed at %g after deadline %g", i, c, tk.Deadline))
		}
	}
	if rep.Horizon > 0 {
		for k := range rep.CoreBusy {
			rep.Utilization[k] = rep.CoreBusy[k] / rep.Horizon
		}
	}
	sort.Strings(rep.Violations)
	return rep, nil
}
