// Package feas decides schedulability of aperiodic task sets on m-core
// processors with a frequency ceiling, via the maximum-flow reduction the
// paper's Related Work attributes to [2] and [4]: a task set is feasible
// at uniform speed cap f̂ if and only if the three-layer transportation
// network
//
//	source --C_i/f̂--> task_i --ℓ_j--> subinterval_j --m·ℓ_j--> sink
//
// (edges task→subinterval only inside task windows) admits a flow of
// value Σ_i C_i/f̂. The max-flow witness doubles as a concrete
// per-subinterval execution-time assignment.
//
// On top of the yes/no test the package computes the minimal feasible
// uniform speed by bisection — the multiprocessor generalization of the
// maximum-intensity bound — which predicts deadline misses on processors
// with a bounded frequency range (Section VI.C).
package feas

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/maxflow"
	"repro/internal/task"
)

// Witness is a feasible execution-time assignment extracted from the
// max-flow solution.
type Witness struct {
	// X[i][k] is the execution time of task i in its k-th eligible
	// subinterval (aligned with Decomposition.SubsOf(i)).
	X [][]float64
	// Speed is the uniform execution speed the witness assumes.
	Speed float64
}

// Feasible reports whether every task can complete when all execution
// happens at speed f̂ on m cores with migration and preemption allowed.
// When feasible, the returned witness realizes it.
func Feasible(d *interval.Decomposition, m int, speed float64) (bool, *Witness, error) {
	if m <= 0 {
		return false, nil, fmt.Errorf("feas: need at least one core, have %d", m)
	}
	if !(speed > 0) {
		return false, nil, fmt.Errorf("feas: speed %g must be positive", speed)
	}
	n := len(d.Tasks)
	N := d.NumSubs()
	// Vertices: 0 source, 1..n tasks, n+1..n+N subintervals, n+N+1 sink.
	g := maxflow.New(n + N + 2)
	src, sink := 0, n+N+1
	type xe struct {
		i, k int
		h    maxflow.EdgeHandle
	}
	var xs []xe
	var demand float64
	for i, tk := range d.Tasks {
		need := tk.Work / speed
		demand += need
		if _, err := g.AddEdge(src, 1+i, need); err != nil {
			return false, nil, err
		}
		for k, j := range d.SubsOf(i) {
			eh, err := g.AddEdge(1+i, 1+n+j, d.Subs[j].Length())
			if err != nil {
				return false, nil, err
			}
			xs = append(xs, xe{i: i, k: k, h: eh})
		}
	}
	for j, sub := range d.Subs {
		if _, err := g.AddEdge(1+n+j, sink, float64(m)*sub.Length()); err != nil {
			return false, nil, err
		}
	}
	flow, err := g.MaxFlow(src, sink)
	if err != nil {
		return false, nil, err
	}
	// Relative tolerance: the flow saturates the demand up to float noise.
	if flow < demand*(1-1e-9)-1e-9 {
		return false, nil, nil
	}
	w := &Witness{Speed: speed, X: make([][]float64, n)}
	for i := range w.X {
		w.X[i] = make([]float64, len(d.SubsOf(i)))
	}
	for _, e := range xs {
		w.X[e.i][e.k] = g.Flow(e.h)
	}
	return true, w, nil
}

// LowerBound returns the largest of the two classic necessary speed
// bounds: the per-task intensity max C_i/(D_i−R_i), and the
// per-subinterval-window load bound
//
//	max over windows [t_a, t_b] of  Σ_{[R_i,D_i] ⊆ [t_a,t_b]} C_i / (m·(t_b−t_a)).
//
// Any feasible uniform speed is at least LowerBound.
func LowerBound(d *interval.Decomposition, m int) float64 {
	var lb float64
	for _, tk := range d.Tasks {
		if in := tk.Intensity(); in > lb {
			lb = in
		}
	}
	pts := d.Points
	for a := 0; a < len(pts); a++ {
		for b := a + 1; b < len(pts); b++ {
			var work float64
			for _, tk := range d.Tasks {
				if tk.Release >= pts[a]-1e-12 && tk.Deadline <= pts[b]+1e-12 {
					work += tk.Work
				}
			}
			if work == 0 {
				continue
			}
			if g := work / (float64(m) * (pts[b] - pts[a])); g > lb {
				lb = g
			}
		}
	}
	return lb
}

// MinSpeed computes the minimal uniform speed at which the task set is
// feasible, to within relative tolerance tol (default 1e-9), by bisecting
// between the necessary lower bound and a trivially sufficient upper
// bound. The returned witness certifies feasibility at the returned
// speed.
func MinSpeed(d *interval.Decomposition, m int, tol float64) (float64, *Witness, error) {
	if tol <= 0 {
		tol = 1e-9
	}
	lo := LowerBound(d, m)
	if lo <= 0 {
		return 0, nil, fmt.Errorf("feas: degenerate task set")
	}
	// The lower bound is feasible iff the flow saturates there; often it
	// is. Otherwise double until feasible.
	hi := lo
	for iter := 0; ; iter++ {
		ok, w, err := Feasible(d, m, hi)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			if hi == lo {
				return hi, w, nil
			}
			break
		}
		hi *= 2
		if iter > 60 {
			return 0, nil, fmt.Errorf("feas: no feasible speed below %g", hi)
		}
	}
	// Invariant: lo infeasible (or untested-equal), hi feasible.
	var witness *Witness
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		ok, w, err := Feasible(d, m, mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi = mid
			witness = w
		} else {
			lo = mid
		}
	}
	if witness == nil {
		_, witness, _ = Feasible(d, m, hi)
	}
	return hi, witness, nil
}

// CheckTaskSet is a convenience wrapper: decompose and test feasibility
// of ts at the given speed ceiling on m cores.
func CheckTaskSet(ts task.Set, m int, speedCeiling float64) (bool, error) {
	d, err := interval.Decompose(ts, 1e-9)
	if err != nil {
		return false, err
	}
	ok, _, err := Feasible(d, m, speedCeiling)
	return ok, err
}
