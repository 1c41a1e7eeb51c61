package pack

import (
	"math"
	"testing"
)

// FuzzInterval drives Algorithm 1 with arbitrary inputs: it must either
// reject them with an error or produce a conservation-respecting,
// collision-free packing — never panic, never fabricate or lose time.
func FuzzInterval(f *testing.F) {
	f.Add(0.0, 2.0, 4, 1.6, 1.6, 1.6, 1.6, 1.6)
	f.Add(8.0, 10.0, 4, 2.0, 1.9231, 1.5385, 1.3846, 1.1538)
	f.Add(0.0, 1.0, 1, 0.5, 0.0, 0.0, 0.0, 0.0)
	f.Add(0.0, 0.0, 2, 1.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(-5.0, 5.0, 3, 10.0, 10.0, 10.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, start, end float64, m int, t0, t1, t2, t3, t4 float64) {
		if math.IsNaN(start) || math.IsNaN(end) || math.IsInf(start, 0) || math.IsInf(end, 0) {
			return
		}
		if m < -10 || m > 64 {
			return
		}
		times := []float64{t0, t1, t2, t3, t4}
		reqs := make([]Request, 0, len(times))
		for i, v := range times {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
			reqs = append(reqs, Request{Task: i, Time: v})
		}
		pieces, err := Interval(start, end, m, reqs)
		if err != nil {
			return // rejected inputs are fine
		}
		// Accepted: verify conservation and containment.
		got := map[int]float64{}
		for _, p := range pieces {
			if p.Start < start-1e-9 || p.End > end+1e-9 {
				t.Fatalf("piece %+v escapes [%g, %g]", p, start, end)
			}
			if p.End-p.Start <= 0 {
				t.Fatalf("non-positive piece %+v", p)
			}
			if p.Core < 0 || p.Core >= m {
				t.Fatalf("piece %+v on invalid core", p)
			}
			got[p.Task] += p.End - p.Start
		}
		for _, r := range reqs {
			want := r.Time
			if want > end-start {
				want = end - start
			}
			if math.Abs(got[r.Task]-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("task %d packed %g of %g", r.Task, got[r.Task], want)
			}
		}
	})
}
