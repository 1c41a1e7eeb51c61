// Package maxflow implements Dinic's maximum-flow algorithm on graphs
// with float64 capacities. It is the combinatorial substrate referenced
// by the paper's Related Work ([2], [4] reduce energy-minimal
// multiprocessor scheduling to repeated maximum-flow computations) and
// powers the feasibility analyzer in package feas: deciding whether a
// task set is schedulable at a given speed reduces to saturating a
// three-layer transportation network.
package maxflow

import (
	"fmt"
	"math"
)

// edge is one directed arc with residual capacity; rev indexes its
// reverse edge in the adjacency list of to.
type edge struct {
	to  int
	cap float64
	rev int
}

// eps is the capacity tolerance: residuals below eps are treated as
// saturated, keeping float arithmetic from spinning on slivers.
const eps = 1e-12

// Graph is a flow network under construction. Vertices are dense ints.
type Graph struct {
	adj [][]edge
}

// New creates a graph with n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]edge, n)}
}

// AddEdge adds a directed edge u→v with the given capacity (must be
// non-negative and finite) and returns an opaque handle usable with Flow.
func (g *Graph) AddEdge(u, v int, cap float64) (EdgeHandle, error) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return EdgeHandle{}, fmt.Errorf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if cap < 0 || math.IsNaN(cap) || math.IsInf(cap, 0) {
		return EdgeHandle{}, fmt.Errorf("maxflow: invalid capacity %g", cap)
	}
	if u == v {
		return EdgeHandle{}, fmt.Errorf("maxflow: self-loop at %d", u)
	}
	g.adj[u] = append(g.adj[u], edge{to: v, cap: cap, rev: len(g.adj[v])})
	g.adj[v] = append(g.adj[v], edge{to: u, cap: 0, rev: len(g.adj[u]) - 1})
	return EdgeHandle{u: u, idx: len(g.adj[u]) - 1, orig: cap}, nil
}

// MustAddEdge is AddEdge but panics on error.
func (g *Graph) MustAddEdge(u, v int, cap float64) EdgeHandle {
	h, err := g.AddEdge(u, v, cap)
	if err != nil {
		panic(err)
	}
	return h
}

// EdgeHandle identifies an edge for flow queries after MaxFlow runs.
type EdgeHandle struct {
	u, idx int
	orig   float64
}

// Flow returns the flow currently routed through the edge.
func (g *Graph) Flow(h EdgeHandle) float64 {
	return h.orig - g.adj[h.u][h.idx].cap
}

// MaxFlow computes the maximum s→t flow with Dinic's algorithm:
// repeatedly build a BFS level graph and saturate it with blocking DFS
// flows. Complexity O(V²E); the scheduling networks here are tiny
// (tasks + subintervals), so this is effectively instantaneous.
func (g *Graph) MaxFlow(s, t int) (float64, error) {
	if s < 0 || s >= len(g.adj) || t < 0 || t >= len(g.adj) {
		return 0, fmt.Errorf("maxflow: terminal out of range")
	}
	if s == t {
		return 0, fmt.Errorf("maxflow: source equals sink")
	}
	var total float64
	level := make([]int, len(g.adj))
	iter := make([]int, len(g.adj))
	queue := make([]int, 0, len(g.adj))
	for {
		// BFS: layer the residual graph.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, e := range g.adj[u] {
				if e.cap > eps && level[e.to] < 0 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		if level[t] < 0 {
			return total, nil
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, math.Inf(1), level, iter)
			if f <= eps {
				break
			}
			total += f
		}
	}
}

// dfs pushes a blocking flow along level-increasing residual edges.
func (g *Graph) dfs(u, t int, limit float64, level, iter []int) float64 {
	if u == t {
		return limit
	}
	for ; iter[u] < len(g.adj[u]); iter[u]++ {
		e := &g.adj[u][iter[u]]
		if e.cap <= eps || level[e.to] != level[u]+1 {
			continue
		}
		pushed := g.dfs(e.to, t, math.Min(limit, e.cap), level, iter)
		if pushed > eps {
			e.cap -= pushed
			g.adj[e.to][e.rev].cap += pushed
			return pushed
		}
	}
	return 0
}
