package opt

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/interval"
	"repro/internal/pack"
	"repro/internal/power"
	"repro/internal/schedule"
)

// Realize turns a Solution into a concrete collision-free schedule,
// checked with the universal validator, proving constructively that the
// convex program's allocation is achievable (the second half of Theorem
// 1's argument). Each task runs at the single frequency C_i/a_i, where
// a_i = min(A_i, C_i/f*) is the portion of its granted time the
// energy-optimal execution actually uses; its execution time is spread
// over subintervals proportionally to the solution's x_{i,j} and packed
// with Algorithm 1.
//
// The realized schedule's energy equals the Solution's Energy exactly (up
// to float arithmetic), so Realize also serves as an end-to-end check of
// the solver's bookkeeping.
func Realize(d *interval.Decomposition, m int, pm power.Model, sol *Solution) (*schedule.Schedule, error) {
	if len(sol.X) != len(d.Tasks) {
		return nil, fmt.Errorf("opt: solution shape mismatch: %d tasks vs %d", len(sol.X), len(d.Tasks))
	}
	n := len(d.Tasks)
	freq := make([]float64, n)
	useFrac := make([]float64, n) // a_i / A_i
	for i, tk := range d.Tasks {
		a := sol.Avail[i]
		if a <= 0 {
			return nil, fmt.Errorf("opt: task %d has no allocated time", i)
		}
		f := pm.BestFrequency(tk.Work, a)
		freq[i] = f
		useFrac[i] = (tk.Work / f) / a
	}
	out := schedule.New(d.Tasks, m)
	for j, sub := range d.Subs {
		var reqs []pack.Request
		for _, id := range sub.Overlapping {
			subs := d.SubsOf(id)
			first := subs[0]
			x := sol.X[id][j-first]
			t := x * useFrac[id]
			if t <= 0 {
				continue
			}
			// Clamp float spill above the subinterval length.
			if t > sub.Length() {
				t = sub.Length()
			}
			reqs = append(reqs, pack.Request{Task: id, Time: t})
		}
		pieces, err := pack.Interval(sub.Start, sub.End, m, reqs)
		if err != nil {
			return nil, fmt.Errorf("opt: realizing subinterval %d: %w", j, err)
		}
		for _, p := range pieces {
			out.Add(schedule.Segment{
				Task: p.Task, Core: p.Core,
				Start: p.Start, End: p.End,
				Frequency: freq[p.Task],
			})
		}
	}
	if v := check.Validate(out, d.Tasks, m, pm); len(v) > 0 {
		return nil, fmt.Errorf("opt: realized optimal schedule infeasible: %v", v[0])
	}
	return out, nil
}
