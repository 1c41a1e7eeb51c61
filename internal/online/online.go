// Package online provides non-clairvoyant schedulers: unlike the paper's
// offline algorithms, these see a task only when it is released. Two
// policies are implemented:
//
//   - ReplanDER: event-driven re-planning. At every release the scheduler
//     re-runs the paper's DER-based pipeline on the residual workload
//     (remaining work of ready tasks) and follows that plan until the
//     next release. Because each plan is feasible for its residual and a
//     suffix of a feasible plan witnesses feasibility of the next
//     residual, the scheme never misses a deadline; it pays only an
//     energy premium for not knowing the future. This is the natural
//     "easy to implement in practical systems" deployment of the paper's
//     algorithm (Section VI.D).
//
//   - FixedSpeedEDF: the no-DVFS baseline. Global EDF on m cores at one
//     constant speed, racing to idle. With speed below the instance's
//     minimal feasible speed it misses deadlines, which the result
//     reports instead of failing.
package online

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Result is the outcome of an online run.
type Result struct {
	// Schedule is the realized schedule (for FixedSpeedEDF it may violate
	// deadlines; see MissedTasks).
	Schedule *schedule.Schedule
	// Energy under the power model.
	Energy float64
	// Replans counts planning episodes (ReplanDER only).
	Replans int
	// MissedTasks lists tasks that completed after their deadline or not
	// at all (FixedSpeedEDF only; ReplanDER never misses).
	MissedTasks []int
}

const workEps = 1e-9

// replanners holds replanners between runs: a schedd session re-plans
// on every arrival, and a fresh one would regrow its arenas each time.
var replanners = sync.Pool{New: func() any { return new(replanner) }}

// replanner is ReplanDER's working memory: the Solver and the per-run
// buffers, none of which a run's Result holds.
type replanner struct {
	sv        core.Solver
	releases  []float64
	remaining []float64
	residual  task.Set
	origID    []int
	plan      []schedule.Segment
}

// ReplanDER runs the event-driven re-planning policy and checks the
// realized schedule with the universal validator.
func ReplanDER(ts task.Set, m int, pm power.Model) (*Result, error) {
	r, err := replanDER(ts, m, pm)
	if err != nil {
		return nil, err
	}
	if v := check.Validate(r.Schedule, ts, m, pm); len(v) > 0 {
		return nil, fmt.Errorf("online: realized schedule infeasible: %v", v[0])
	}
	return r, nil
}

// replanDER is ReplanDER without the feasibility check. Its replanner
// goes back to the pool only after a run that returned, never after a
// panic; nothing the run returns aliases it.
func replanDER(ts task.Set, m int, pm power.Model) (*Result, error) {
	rp := replanners.Get().(*replanner)
	r, err := rp.run(ts, m, pm)
	replanners.Put(rp)
	return r, err
}

// run is replanDER planning with rp's memory.
func (rp *replanner) run(ts task.Set, m int, pm power.Model) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("online: need at least one core, have %d", m)
	}
	// Distinct release times in ascending order are the planning events.
	releases := distinctReleases(rp.releases[:0], ts)
	rp.releases = releases
	remaining := slices.Grow(rp.remaining[:0], len(ts))[:len(ts)]
	rp.remaining = remaining
	// A run whose one planning event plans every task (every schedd
	// session replan) is that plan under unchanged task IDs (no segment
	// starts before the release, and none is empty), so the plan is built
	// straight into out, which comes from schedule.Reuse: a caller that
	// recycles the schedules it is done with plans without allocating.
	whole := len(releases) == 1
	for i, tk := range ts {
		remaining[i] = tk.Work
		whole = whole && tk.Work > workEps
	}
	var out *schedule.Schedule
	if whole {
		out = schedule.Reuse(ts, m)
	} else {
		out = schedule.New(ts, m)
	}
	replans := 0
	residual, origID := rp.residual, rp.origID
	for k, t0 := range releases {
		t1 := math.Inf(1)
		if k+1 < len(releases) {
			t1 = releases[k+1]
		}
		// Residual instance: ready, unfinished tasks with their remaining
		// work, released "now".
		residual, origID = residual[:0], origID[:0]
		for i, tk := range ts {
			if tk.Release <= t0+1e-12 && remaining[i] > workEps {
				residual = append(residual, task.Task{
					ID:       len(residual),
					Release:  t0,
					Work:     remaining[i],
					Deadline: tk.Deadline,
				})
				origID = append(origID, i)
			}
		}
		rp.residual, rp.origID = residual, origID
		if len(residual) == 0 {
			continue
		}
		// Only S^F is followed, so S^I is not built. ReplanDER's final
		// check covers every segment taken from the plan.
		buf := rp.plan[:0]
		if whole {
			buf = out.Segments[:0]
		}
		segs, _, err := rp.sv.AppendFinal(buf, residual, m, pm, alloc.DER, core.Options{Tolerance: 1e-9, SkipValidation: true})
		if err != nil {
			return nil, fmt.Errorf("online: replanning at t=%g: %w", t0, err)
		}
		replans++
		if whole {
			out.Segments = segs
		} else {
			rp.plan = segs
			out.Grow(len(segs))
		}
		for _, seg := range segs {
			s := math.Max(seg.Start, t0)
			e := math.Min(seg.End, t1)
			if e-s <= 0 {
				continue
			}
			orig := origID[seg.Task]
			if !whole {
				out.Add(schedule.Segment{
					Task: orig, Core: seg.Core,
					Start: s, End: e, Frequency: seg.Frequency,
				})
			}
			remaining[orig] -= seg.Frequency * (e - s)
		}
	}
	for i, r := range remaining {
		if r > 1e-6*math.Max(1, ts[i].Work) {
			return nil, fmt.Errorf("online: task %d left with %g work (internal error)", i, r)
		}
	}
	return &Result{Schedule: out, Energy: out.Energy(pm), Replans: replans}, nil
}

// FixedSpeedEDF runs global EDF at a constant speed and reports misses.
func FixedSpeedEDF(ts task.Set, m int, pm power.Model, speed float64) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("online: need at least one core, have %d", m)
	}
	if !(speed > 0) {
		return nil, fmt.Errorf("online: speed %g must be positive", speed)
	}
	releases := distinctReleases(nil, ts)
	remaining := make([]float64, len(ts))
	completion := make([]float64, len(ts))
	for i, tk := range ts {
		remaining[i] = tk.Work
		completion[i] = math.NaN()
	}
	out := schedule.New(ts, m)
	coreOf := make([]int, len(ts))
	for i := range coreOf {
		coreOf[i] = -1
	}
	t := releases[0]
	for {
		// Ready, unfinished tasks by EDF order.
		var ready []int
		for i, tk := range ts {
			if tk.Release <= t+1e-12 && remaining[i] > workEps {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			nxt, ok := nextRelease(releases, t)
			if !ok {
				break
			}
			t = nxt
			continue
		}
		sort.SliceStable(ready, func(a, b int) bool {
			if ts[ready[a]].Deadline != ts[ready[b]].Deadline {
				return ts[ready[a]].Deadline < ts[ready[b]].Deadline
			}
			return ready[a] < ready[b]
		})
		running := ready
		if len(running) > m {
			running = running[:m]
		}
		assignCores(running, coreOf, m)
		// Advance to the next event: a release or the earliest completion.
		tNext := math.Inf(1)
		if nxt, ok := nextRelease(releases, t); ok {
			tNext = nxt
		}
		for _, i := range running {
			if c := t + remaining[i]/speed; c < tNext {
				tNext = c
			}
		}
		if math.IsInf(tNext, 1) {
			// No release ahead: everything running completes.
			for _, i := range running {
				c := t + remaining[i]/speed
				if c > tNext {
					tNext = c
				}
			}
		}
		for _, i := range running {
			e := math.Min(tNext, t+remaining[i]/speed)
			if e <= t {
				continue
			}
			out.Add(schedule.Segment{Task: i, Core: coreOf[i], Start: t, End: e, Frequency: speed})
			remaining[i] -= speed * (e - t)
			if remaining[i] <= workEps && math.IsNaN(completion[i]) {
				completion[i] = e
			}
		}
		t = tNext
		if math.IsInf(t, 1) {
			break
		}
	}
	res := &Result{Schedule: out, Energy: out.Energy(pm)}
	for i, tk := range ts {
		if remaining[i] > 1e-6*math.Max(1, tk.Work) {
			res.MissedTasks = append(res.MissedTasks, i)
			continue
		}
		if c := completion[i]; !math.IsNaN(c) && c > tk.Deadline+1e-9 {
			res.MissedTasks = append(res.MissedTasks, i)
		}
	}
	return res, nil
}

// assignCores keeps previously running tasks on their cores and places
// newcomers on free cores, evicting assignments of tasks that stopped.
func assignCores(running []int, coreOf []int, m int) {
	used := make([]bool, m)
	inRun := map[int]bool{}
	for _, i := range running {
		inRun[i] = true
	}
	for i := range coreOf {
		if coreOf[i] >= 0 && !inRun[i] {
			coreOf[i] = -1
		}
	}
	for _, i := range running {
		if coreOf[i] >= 0 {
			used[coreOf[i]] = true
		}
	}
	for _, i := range running {
		if coreOf[i] >= 0 {
			continue
		}
		for k := 0; k < m; k++ {
			if !used[k] {
				coreOf[i] = k
				used[k] = true
				break
			}
		}
	}
}

// distinctReleases appends ts's distinct release times, ascending, to
// the empty dst.
func distinctReleases(dst []float64, ts task.Set) []float64 {
	for _, tk := range ts {
		dst = append(dst, tk.Release)
	}
	sort.Float64s(dst)
	out := dst[:0]
	for _, r := range dst {
		if len(out) == 0 || r > out[len(out)-1]+1e-12 {
			out = append(out, r)
		}
	}
	return out
}

func nextRelease(releases []float64, t float64) (float64, bool) {
	idx := sort.SearchFloat64s(releases, t+1e-12)
	if idx >= len(releases) {
		return 0, false
	}
	return releases[idx], true
}
