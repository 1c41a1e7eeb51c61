package check

import (
	"math"

	"repro/internal/schedule"
	"repro/internal/task"
)

// Profile is a schedule's execution profile: the figures sim.Run reports
// for it, apart from task completions and violations. For a schedule of
// ts that passes the audit, every field equals sim.Run's bit for bit,
// unless two segments of one core or of one task start, or end, at the
// same instant: sim.Run then follows its heap's layout. The simulator
// derives the figures independently, from its event queue.
type Profile struct {
	// Energy is Σ p(f)·(End − Start) over the segments on cores
	// 0..s.Cores−1, summed in segment order.
	Energy float64
	// Horizon is the span from the first segment start to the last end.
	Horizon float64
	// CoreBusy[k] is the total busy time of core k; it has s.Cores
	// entries.
	CoreBusy []float64
	// Utilization[k] is CoreBusy[k]/Horizon (0 when the horizon is empty).
	Utilization []float64
	// Preemptions counts segment ends with more than simEps of the
	// task's work left.
	Preemptions int
	// Migrations counts segments that run a task on a different core
	// than its previous segment.
	Migrations int
	// Wakeups counts segments that start on a core idle for more than
	// simEps, each core's first segment included.
	Wakeups int
}

// simEps is sim.Run's event tolerance: a core wakes when a segment
// starts more than simEps after its previous one ended, and a segment
// end preempts its task when more than simEps of the work remains.
const simEps = 1e-9

// executionProfile derives the profile of the audited segments of a
// schedule with the given core count, segPower[i] being segment i's
// power. Like sim.Run, it ignores segments
// on cores outside 0..cores−1 except for the horizon, and it counts
// segments no longer than ε, whose slices the sweep skips.
//
// Wake-ups and migrations depend on each core's and each task's
// segments in start order, busy time and preemptions on them in end
// order; sim.Run pops its events in those orders. runs holds the exact
// ranks of every segment's Start and End among the sorted boundaries,
// so two counting sorts order the segments in O(S + boundaries). Where
// two segments of one core or one task start or end at the same
// instant, the simulator's order is that of its heap; the profile takes
// them in segment order.
func (sc *scratch) executionProfile(segs []schedule.Segment, segPower []float64, runs *sliceRuns, ts task.Set, cores int) Profile {
	cores = max(cores, 0)
	// The profile's two slices share one allocation, which it owns; the
	// walks' buffers are the audit's scratch.
	busy := make([]float64, 2*cores)
	p := Profile{CoreBusy: busy[:cores:cores], Utilization: busy[cores:]}
	if len(segs) == 0 {
		return p
	}
	floats := take(&sc.floats, cores+len(ts))
	coreEnd := floats[:cores]   // end of the core's previous segment
	remaining := floats[cores:] // work the task has left
	s := len(segs)
	ints := take(&sc.walk, s+len(ts)+len(runs.uniq)+1)
	order := ints[:s]
	lastCore := ints[s : s+len(ts)] // core of the task's previous segment
	count := ints[s+len(ts):]

	// The first boundary is the earliest Start and the last the latest
	// End.
	p.Horizon = runs.uniq[len(runs.uniq)-1] - runs.uniq[0]
	for i := range segs {
		if seg := &segs[i]; seg.Core < cores {
			p.Energy += segPower[i] * seg.Duration()
		}
	}

	for k := range coreEnd {
		coreEnd[k] = math.NaN() // the core has not run yet
	}
	for i := range lastCore {
		lastCore[i] = -1
	}
	sortByRank(order, count, runs.start)
	for _, i := range order {
		seg := &segs[i]
		if seg.Core >= cores {
			continue
		}
		if end := coreEnd[seg.Core]; math.IsNaN(end) || seg.Start > end+simEps {
			p.Wakeups++
		}
		coreEnd[seg.Core] = seg.End
		if last := lastCore[seg.Task]; last >= 0 && int(last) != seg.Core {
			p.Migrations++
		}
		lastCore[seg.Task] = int32(seg.Core)
	}

	for i, tk := range ts {
		remaining[i] = tk.Work
	}
	sortByRank(order, count, runs.end)
	for _, i := range order {
		seg := &segs[i]
		if seg.Core >= cores {
			continue
		}
		p.CoreBusy[seg.Core] += seg.Duration()
		remaining[seg.Task] -= seg.Work()
		if remaining[seg.Task] > simEps {
			p.Preemptions++
		}
	}

	if p.Horizon > 0 {
		for k, busy := range p.CoreBusy {
			p.Utilization[k] = busy / p.Horizon
		}
	}
	return p
}

// sortByRank fills order with the indices 0..len(rank)−1 sorted by rank,
// ties in index order: a counting sort over ranks 0..len(count)−2.
func sortByRank(order, count, rank []int32) {
	clear(count)
	for _, r := range rank {
		count[r+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for i, r := range rank {
		order[count[r]] = int32(i)
		count[r]++
	}
}
