// Package partition implements a non-migratory baseline scheduler:
// tasks are statically assigned to cores (first-fit-decreasing on
// intensity, balancing each core's minimal feasible speed) and each core
// independently runs the YDS optimal uniprocessor algorithm, with
// frequencies floored at the critical frequency when static power makes
// full stretching wasteful.
//
// The paper's algorithms allow migration; this baseline quantifies what
// that freedom buys. Partitioning is how many practical systems deploy
// DVFS scheduling (per-core runqueues), so the comparison is of direct
// practical interest.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
	"repro/internal/yds"
)

// Assignment maps tasks to cores.
type Assignment struct {
	// CoreOf[i] is the core of task i.
	CoreOf []int
	// PerCore[k] lists the original task IDs assigned to core k.
	PerCore [][]int
	// PeakSpeed[k] is the minimal feasible uniform speed of core k's
	// subset (the balancing objective).
	PeakSpeed []float64
}

// Assign distributes tasks over m cores with a greedy
// first-fit-decreasing heuristic: tasks in decreasing intensity order,
// each placed on the core whose post-placement minimal feasible speed is
// smallest. This balances the per-core speed requirement, the quantity
// that drives both deadline feasibility and energy.
func Assign(ts task.Set, m int) (*Assignment, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("partition: need at least one core, have %d", m)
	}
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ts[order[a]].Intensity() > ts[order[b]].Intensity()
	})
	a := &Assignment{
		CoreOf:    make([]int, len(ts)),
		PerCore:   make([][]int, m),
		PeakSpeed: make([]float64, m),
	}
	coreSets := make([]task.Set, m)
	for _, id := range order {
		best := -1
		bestPeak := 0.0
		for k := 0; k < m; k++ {
			cand := append(coreSets[k].Clone(), ts[id])
			cand.Renumber()
			d, err := interval.Decompose(cand, 1e-9)
			if err != nil {
				return nil, err
			}
			peak := feas.LowerBound(d, 1)
			if best == -1 || peak < bestPeak {
				best, bestPeak = k, peak
			}
		}
		coreSets[best] = append(coreSets[best], ts[id])
		coreSets[best].Renumber()
		a.CoreOf[id] = best
		a.PerCore[best] = append(a.PerCore[best], id)
		a.PeakSpeed[best] = bestPeak
	}
	return a, nil
}

// Schedule builds the full partitioned schedule: per-core YDS with the
// critical-frequency floor, mapped back to original task IDs and core
// indices. Returns the realized schedule, checked with the universal
// validator, and its energy under the model.
func Schedule(ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
	out, energy, err := build(ts, m, pm)
	if err != nil {
		return nil, 0, err
	}
	if v := check.Validate(out, ts, m, pm); len(v) > 0 {
		return nil, 0, fmt.Errorf("partition: realized schedule infeasible: %v", v[0])
	}
	return out, energy, nil
}

// build is Schedule without the feasibility check.
func build(ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
	if err := pm.Validate(); err != nil {
		return nil, 0, err
	}
	asg, err := Assign(ts, m)
	if err != nil {
		return nil, 0, err
	}
	out := schedule.New(ts, m)
	fstar := pm.CriticalFrequency()
	for k, ids := range asg.PerCore {
		if len(ids) == 0 {
			continue
		}
		sub := make(task.Set, len(ids))
		for i, id := range ids {
			sub[i] = ts[id]
			sub[i].ID = i
		}
		coreSched, _, err := yds.Build(sub)
		if err != nil {
			return nil, 0, fmt.Errorf("partition: core %d: %w", k, err)
		}
		for _, seg := range coreSched.Segments {
			f := seg.Frequency
			end := seg.End
			if f < fstar {
				// Running below the critical frequency wastes static
				// energy; shrink the segment to run at f* instead. The
				// shrunk segment stays inside its original slot, so no
				// collision can appear.
				work := seg.Work()
				f = fstar
				end = seg.Start + work/f
			}
			out.Add(schedule.Segment{
				Task:      ids[seg.Task],
				Core:      k,
				Start:     seg.Start,
				End:       end,
				Frequency: f,
			})
		}
	}
	return out, out.Energy(pm), nil
}
