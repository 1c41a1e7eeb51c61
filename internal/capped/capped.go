// Package capped extends the paper's pipeline with a frequency ceiling:
// on processors with a bounded frequency range, the DER-based final
// schedule can demand frequencies above f_max and miss deadlines
// (Section VI.C's observation, reproduced by the fig11-stress
// experiment). This package guarantees a miss-free schedule on every
// instance that is feasible at f_max, while spending the remaining slack
// on energy:
//
//  1. Run the paper's pipeline. If the final frequencies stay within
//     f_max, done — nothing changes.
//  2. Otherwise build a two-phase max-flow allocation: phase one routes
//     each task's mandatory time C_i/f_max (saturating it certifies
//     feasibility); phase two augments toward each task's ideal
//     execution time C_i/f_i^O on the residual network, stretching tasks
//     wherever capacity remains.
//  3. Set each task's frequency to max(f*, C_i/A_i) ≤ f_max and realize
//     the allocation with Algorithm 1.
//
// The result is a deadline-guaranteed schedule whose energy approaches
// the unconstrained heuristic's when the cap is slack.
package capped

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ideal"
	"repro/internal/interval"
	"repro/internal/maxflow"
	"repro/internal/pack"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Result is the outcome of the cap-aware scheduler.
type Result struct {
	// Schedule is the realized, validated schedule; every frequency is
	// ≤ the cap.
	Schedule *schedule.Schedule
	// Energy under the continuous model.
	Energy float64
	// Frequencies per task.
	Frequencies []float64
	// UsedFallback reports whether the two-phase flow allocation was
	// needed (false means the plain pipeline already fit under the cap).
	UsedFallback bool
}

// ErrInfeasible is returned when the task set cannot meet its deadlines
// at the frequency cap on the given core count — no scheduler could.
var ErrInfeasible = fmt.Errorf("capped: instance infeasible at the frequency cap")

// Schedule runs the cap-aware pipeline and checks the realized schedule
// with the universal validator. The cap must exceed the model's critical
// frequency (otherwise running at the cap is forced anyway).
func Schedule(ts task.Set, m int, pm power.Model, method alloc.Method, cap float64) (*Result, error) {
	if !(cap > 0) {
		return nil, fmt.Errorf("capped: cap %g must be positive", cap)
	}
	if pm.CriticalFrequency() > cap {
		return nil, fmt.Errorf("capped: critical frequency %g above the cap %g", pm.CriticalFrequency(), cap)
	}
	base, err := core.NewSolver().Final(ts, m, pm, method, core.Options{Tolerance: 1e-9, SkipValidation: true})
	if err != nil {
		return nil, err
	}
	r := &Result{Schedule: base.Final, Energy: base.FinalEnergy, Frequencies: base.FinalFrequencies}
	for _, f := range base.FinalFrequencies {
		if f > cap*(1+1e-12) {
			if r, err = fallback(base.Decomp, base.Ideal, m, pm, cap); err != nil {
				return nil, err
			}
			break
		}
	}
	if v := check.Validate(r.Schedule, ts, m, pm); len(v) > 0 {
		return nil, fmt.Errorf("capped: realized schedule infeasible: %v", v[0])
	}
	return r, nil
}

// fallback builds the two-phase flow allocation and realizes it.
func fallback(d *interval.Decomposition, plan *ideal.Plan, m int, pm power.Model, cap float64) (*Result, error) {
	n := len(d.Tasks)
	N := d.NumSubs()
	g := maxflow.New(n + N + 2)
	src, sink := 0, n+N+1

	type xe struct {
		i, j int
		h    maxflow.EdgeHandle
	}
	var xs []xe
	mandatory := make([]float64, n)
	var demand float64
	for i, tk := range d.Tasks {
		mandatory[i] = tk.Work / cap
		demand += mandatory[i]
		if _, err := g.AddEdge(src, 1+i, mandatory[i]); err != nil {
			return nil, err
		}
		for _, j := range d.SubsOf(i) {
			h, err := g.AddEdge(1+i, 1+n+j, d.Subs[j].Length())
			if err != nil {
				return nil, err
			}
			xs = append(xs, xe{i: i, j: j, h: h})
		}
	}
	for j, sub := range d.Subs {
		if _, err := g.AddEdge(1+n+j, sink, float64(m)*sub.Length()); err != nil {
			return nil, err
		}
	}
	flow, err := g.MaxFlow(src, sink)
	if err != nil {
		return nil, err
	}
	if flow < demand*(1-1e-9)-1e-9 {
		return nil, ErrInfeasible
	}
	// Phase two: stretch toward the ideal execution times on the
	// residual network. Extra capacity per task: ideal time − mandatory.
	for i := range d.Tasks {
		extra := plan.Tasks[i].ExecTime() - mandatory[i]
		if extra <= 0 {
			continue
		}
		if _, err := g.AddEdge(src, 1+i, extra); err != nil {
			return nil, err
		}
	}
	if _, err := g.MaxFlow(src, sink); err != nil {
		return nil, err
	}

	// Extract the allocation and set frequencies.
	x := make([]map[int]float64, n)
	avail := make([]float64, n)
	for i := range x {
		x[i] = map[int]float64{}
	}
	for _, e := range xs {
		v := g.Flow(e.h)
		if v <= 0 {
			continue
		}
		if l := d.Subs[e.j].Length(); v > l {
			v = l // absorb float spill
		}
		x[e.i][e.j] = v
		avail[e.i] += v
	}
	freqs := make([]float64, n)
	var energy float64
	for i, tk := range d.Tasks {
		if avail[i] <= 0 {
			return nil, fmt.Errorf("capped: task %d received no time", i)
		}
		f := pm.BestFrequency(tk.Work, avail[i])
		if f > cap*(1+1e-9) {
			return nil, fmt.Errorf("capped: internal error, frequency %g above cap %g", f, cap)
		}
		if f > cap {
			f = cap
		}
		freqs[i] = f
		energy += pm.Energy(tk.Work, f)
	}

	// Realize: per subinterval, each task uses its share scaled by the
	// fraction of allocated time its final frequency actually needs.
	out := schedule.New(d.Tasks, m)
	for j, sub := range d.Subs {
		var reqs []pack.Request
		for _, id := range sub.Overlapping {
			share := x[id][j]
			if share <= 0 {
				continue
			}
			use := (d.Tasks[id].Work / freqs[id]) / avail[id]
			t := share * use
			if t <= 0 {
				continue
			}
			reqs = append(reqs, pack.Request{Task: id, Time: t})
		}
		pieces, err := pack.Interval(sub.Start, sub.End, m, reqs)
		if err != nil {
			return nil, fmt.Errorf("capped: subinterval %d: %w", j, err)
		}
		for _, p := range pieces {
			out.Add(schedule.Segment{
				Task: p.Task, Core: p.Core,
				Start: p.Start, End: p.End,
				Frequency: freqs[p.Task],
			})
		}
	}
	return &Result{
		Schedule:     out,
		Energy:       energy,
		Frequencies:  freqs,
		UsedFallback: true,
	}, nil
}
