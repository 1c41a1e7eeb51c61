// Package ideal implements the unlimited-core ideal case of Section V.A:
// each task runs alone on its own core at the closed-form optimal
// frequency
//
//	f_i^O = max( (p0/(γ(α−1)))^(1/α), C_i/(D_i − R_i) ),
//
// starting at its release time. The resulting per-task execution intervals
// U_i^O = [R_i, R_i + C_i/f_i^O] and energies E_i^O define both the
// paper's "Idl" reference curve and the Desired Execution Requirements
// that drive the DER-based allocation (Section V.C).
package ideal

import (
	"fmt"
	"slices"

	"repro/internal/interval"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/task"
)

// TaskPlan is the ideal-case plan of one task.
type TaskPlan struct {
	Task task.Task
	// Frequency is f_i^O.
	Frequency float64
	// Start and End delimit U_i^O = [R_i, R_i + C_i/f_i^O]. Due to static
	// power, End may be strictly before the deadline (Fig. 3).
	Start, End float64
	// Energy is E_i^O = C_i·(γ·f^(α−1) + p0/f).
	Energy float64
}

// ExecTime returns the ideal execution time C_i/f_i^O.
func (p TaskPlan) ExecTime() float64 { return p.End - p.Start }

// Plan is the full ideal-case solution S^O.
type Plan struct {
	Model power.Model
	Tasks []TaskPlan
	// TotalEnergy is E^O = Σ E_i^O, a lower bound on any feasible
	// schedule's energy whenever f* does not force over-provisioning
	// (the paper notes E^opt may exceed E^O only in corner cases).
	TotalEnergy float64
}

// Build computes the ideal plan for every task.
func Build(ts task.Set, m power.Model) (*Plan, error) {
	p := new(Plan)
	if err := BuildInto(p, ts, m); err != nil {
		return nil, err
	}
	return p, nil
}

// BuildInto is Build computing into p, whose task table it reuses:
// whatever p held before is overwritten.
func BuildInto(p *Plan, ts task.Set, m power.Model) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	p.Model = m
	p.Tasks = slices.Grow(p.Tasks[:0], len(ts))[:len(ts)]
	var total numeric.KahanSum
	fstar := m.CriticalFrequency()
	for i, tk := range ts {
		f := m.BestFrequencyAt(fstar, tk.Work, tk.Window())
		e := m.Energy(tk.Work, f)
		p.Tasks[i] = TaskPlan{
			Task:      tk,
			Frequency: f,
			Start:     tk.Release,
			End:       tk.Release + tk.Work/f,
			Energy:    e,
		}
		total.Add(e)
	}
	p.TotalEnergy = total.Value()
	return nil
}

// MustBuild is Build but panics on error.
func MustBuild(ts task.Set, m power.Model) *Plan {
	p, err := Build(ts, m)
	if err != nil {
		panic(err)
	}
	return p
}

// ExecWithin returns |U_i^O ∩ [lo, hi]|: how much of task i's ideal
// execution falls inside [lo, hi].
func (p *Plan) ExecWithin(i int, lo, hi float64) float64 {
	tp := p.Tasks[i]
	a := tp.Start
	if lo > a {
		a = lo
	}
	b := tp.End
	if hi < b {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// DER returns the Desired Execution Requirement of task i during
// subinterval j of the decomposition (Eq. 24):
//
//	c(τ_{j,i}) = |U_i^O ∩ [t_j, t_{j+1}]| · f_i^O.
func (p *Plan) DER(d *interval.Decomposition, i, j int) float64 {
	s := d.Subs[j]
	return p.ExecWithin(i, s.Start, s.End) * p.Tasks[i].Frequency
}

func (p *Plan) String() string {
	return fmt.Sprintf("ideal plan: %d tasks, E^O = %.6g under %v", len(p.Tasks), p.TotalEnergy, p.Model)
}
