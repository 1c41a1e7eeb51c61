package feas

import (
	"fmt"

	"repro/internal/interval"
)

// Validate checks a witness against the polytope constraints: the
// tests' oracle for the witnesses CheckTaskSet returns.
func (w *Witness) Validate(d *interval.Decomposition, m int) error {
	used := make([]float64, d.NumSubs())
	for i := range w.X {
		var got float64
		for k, j := range d.SubsOf(i) {
			v := w.X[i][k]
			if v < -1e-9 {
				return fmt.Errorf("feas: negative assignment x[%d][%d] = %g", i, j, v)
			}
			if v > d.Subs[j].Length()+1e-9 {
				return fmt.Errorf("feas: x[%d][%d] = %g exceeds subinterval length %g", i, j, v, d.Subs[j].Length())
			}
			used[j] += v
			got += v
		}
		need := d.Tasks[i].Work / w.Speed
		if got < need*(1-1e-6)-1e-9 {
			return fmt.Errorf("feas: task %d assigned %g of %g", i, got, need)
		}
	}
	for j, u := range used {
		if u > float64(m)*d.Subs[j].Length()*(1+1e-9)+1e-9 {
			return fmt.Errorf("feas: subinterval %d over capacity: %g", j, u)
		}
	}
	return nil
}
