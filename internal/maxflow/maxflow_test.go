package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivialEdge(t *testing.T) {
	g := New(2)
	h := g.MustAddEdge(0, 1, 5)
	f, err := g.MaxFlow(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 5 {
		t.Errorf("flow = %g, want 5", f)
	}
	if got := g.Flow(h); got != 5 {
		t.Errorf("edge flow = %g, want 5", got)
	}
}

func TestClassicNetwork(t *testing.T) {
	// The standard CLRS example: max flow 23.
	g := New(6)
	g.MustAddEdge(0, 1, 16)
	g.MustAddEdge(0, 2, 13)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 1, 4)
	g.MustAddEdge(1, 3, 12)
	g.MustAddEdge(3, 2, 9)
	g.MustAddEdge(2, 4, 14)
	g.MustAddEdge(4, 3, 7)
	g.MustAddEdge(3, 5, 20)
	g.MustAddEdge(4, 5, 4)
	f, err := g.MaxFlow(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-23) > 1e-9 {
		t.Errorf("flow = %g, want 23", f)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(2, 3, 10)
	f, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("flow = %g, want 0", f)
	}
}

func TestParallelPaths(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(1, 3, 5)
	g.MustAddEdge(2, 3, 2)
	f, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-5) > 1e-9 {
		t.Errorf("flow = %g, want 5 (3 + min(4,2))", f)
	}
}

func TestFractionalCapacities(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 0.25)
	g.MustAddEdge(1, 2, 0.75)
	f, err := g.MaxFlow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.25) > 1e-12 {
		t.Errorf("flow = %g, want 0.25", f)
	}
}

func TestErrors(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop should fail")
	}
	if _, err := g.AddEdge(0, 1, -1); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN capacity should fail")
	}
	if _, err := g.MaxFlow(0, 0); err == nil {
		t.Error("s == t should fail")
	}
	if _, err := g.MaxFlow(0, 9); err == nil {
		t.Error("bad terminal should fail")
	}
}

// TestFlowConservation verifies conservation and capacity constraints on
// random bipartite transportation networks (the shape used by feas).
func TestFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL := 1 + rng.Intn(6)
		nR := 1 + rng.Intn(6)
		// Vertices: 0 = s, 1..nL tasks, nL+1..nL+nR slots, last = t.
		n := nL + nR + 2
		g := New(n)
		s, tk := 0, n-1
		type rec struct {
			h   EdgeHandle
			cap float64
		}
		var edges []rec
		for i := 1; i <= nL; i++ {
			c := rng.Float64() * 10
			edges = append(edges, rec{g.MustAddEdge(s, i, c), c})
		}
		for i := 1; i <= nL; i++ {
			for j := 0; j < nR; j++ {
				if rng.Float64() < 0.6 {
					c := rng.Float64() * 5
					edges = append(edges, rec{g.MustAddEdge(i, nL+1+j, c), c})
				}
			}
		}
		for j := 0; j < nR; j++ {
			c := rng.Float64() * 10
			edges = append(edges, rec{g.MustAddEdge(nL+1+j, tk, c), c})
		}
		total, err := g.MaxFlow(s, tk)
		if err != nil || total < -1e-9 {
			return false
		}
		// Capacity constraints.
		net := make([]float64, n)
		for _, e := range edges {
			fl := g.Flow(e.h)
			if fl < -1e-9 || fl > e.cap+1e-9 {
				return false
			}
		}
		// Conservation: recompute per-vertex balance from handles.
		for _, e := range edges {
			fl := g.Flow(e.h)
			net[e.h.u] -= fl
			net[g.adj[e.h.u][e.h.idx].to] += fl
		}
		for v := 1; v < n-1; v++ {
			if math.Abs(net[v]) > 1e-6 {
				return false
			}
		}
		// Source outflow equals reported max flow.
		if math.Abs(-net[s]-total) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMaxFlowMinCut spot-checks weak duality: the flow never exceeds any
// cut we can cheaply evaluate (the source-side star cut).
func TestMaxFlowMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(5)
		g := New(n)
		var srcCut float64
		for v := 1; v < n; v++ {
			c := rng.Float64() * 5
			g.MustAddEdge(0, v, c)
			srcCut += c
			if v < n-1 {
				g.MustAddEdge(v, n-1, rng.Float64()*5)
			}
		}
		f, err := g.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if f > srcCut+1e-9 {
			t.Fatalf("flow %g exceeds source cut %g", f, srcCut)
		}
	}
}

func BenchmarkMaxFlowTransportation(b *testing.B) {
	// Shape of the scheduling feasibility network: 40 tasks × 80 slots.
	build := func() (*Graph, int, int) {
		nL, nR := 40, 80
		n := nL + nR + 2
		g := New(n)
		rng := rand.New(rand.NewSource(9))
		for i := 1; i <= nL; i++ {
			g.MustAddEdge(0, i, 5+rng.Float64()*10)
			for j := 0; j < nR; j++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(i, nL+1+j, 2)
				}
			}
		}
		for j := 0; j < nR; j++ {
			g.MustAddEdge(nL+1+j, n-1, 8)
		}
		return g, 0, n - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, s, t := build()
		if _, err := g.MaxFlow(s, t); err != nil {
			b.Fatal(err)
		}
	}
}
