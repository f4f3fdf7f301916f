package graph

import (
	"fmt"
	"slices"
)

// tree.go keeps the shortest-path tree a full Dijkstra settles as a
// value the caller owns: build a Tree once per source, then trace any
// number of destinations off its parent edges. This is the
// source-batched complement to the per-pair entry points — one SSSP
// amortized over every destination sharing the source — and the
// results are bit-identical to per-pair ShortestPath queries:
// parents only change on strictly-shorter relaxations, so a settled
// vertex's parent chain is final whether or not the run stopped
// early at that vertex.
//
// A tree holds one int32 parent edge per vertex and no distances.
// Path re-sums the weight from the source along the traced edges,
// which repeats Dijkstra's own additions in the same order (every
// settled distance is its parent's settled distance plus the parent
// edge's weight), so Path.Weight is the per-pair distance bit for bit.

// Tree is a single-source shortest-path tree over one weight table.
// It is immutable once built, so any number of goroutines may query
// it concurrently.
type Tree struct {
	g       *Graph
	weights []float64 // the table the tree was built under (not a copy)
	parent  []int32   // parent edge per vertex; -1 at the source and at unreached vertices
	src     int32
}

// ShortestTree runs a full single-source Dijkstra from src over the
// weight table (weights[e] is edge e's cost, +Inf excludes it; nil
// means the default weights — see Weights to materialize a
// WeightFunc) and returns the settled tree. The tree keeps a reference
// to weights, which must not change while the tree is in use. Only
// the tree is allocated.
func (g *Graph) ShortestTree(ws *Workspace, src int, weights []float64) *Tree {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: ShortestTree source %d out of range [0,%d)", src, g.n))
	}
	t := g.topoView()
	if weights == nil {
		weights = t.defWeights
	} else if len(weights) != len(g.edges) {
		panic(fmt.Sprintf("graph: ShortestTree weight table has %d entries for %d edges", len(weights), len(g.edges)))
	}
	g.dijkstra(ws, t, weights, int32(src), -1)
	parent := make([]int32, g.n)
	for v := range parent {
		if ws.visited(int32(v)) {
			parent[v] = ws.parent[v]
		} else {
			parent[v] = -1
		}
	}
	return &Tree{g: g, weights: weights, parent: parent, src: int32(src)}
}

// reachable reports whether dst was settled from the source.
func (t *Tree) reachable(dst int) bool {
	return dst >= 0 && dst < len(t.parent) && (t.parent[dst] >= 0 || dst == int(t.src))
}

// Path materializes the path from the source to dst (ok=false when
// unreachable). Only the returned Path is allocated.
func (t *Tree) Path(dst int) (Path, bool) {
	if !t.reachable(dst) {
		return Path{}, false
	}
	hops := 0
	for v := dst; v != int(t.src); hops++ {
		v = t.g.edges[t.parent[v]].other(v)
	}
	if hops == 0 {
		return Path{Nodes: []int{dst}}, true
	}
	nodes := make([]int, hops+1)
	edges := make([]int, hops)
	nodes[hops] = dst
	v := dst
	for i := hops - 1; i >= 0; i-- {
		eid := t.parent[v]
		edges[i] = int(eid)
		v = t.g.edges[eid].other(v)
		nodes[i] = v
	}
	weight := 0.0
	for _, eid := range edges {
		weight += t.weights[eid]
	}
	return Path{Nodes: nodes, Edges: edges, Weight: weight}, true
}

// AppendPathEdges appends the edge ids of the path from the source to
// dst, in path order, to buf and returns the extended slice (ok=false
// and buf unchanged when dst is unreachable). It allocates only to
// grow buf, for hot loops that walk many paths and need only edges.
func (t *Tree) AppendPathEdges(buf []int, dst int) ([]int, bool) {
	if !t.reachable(dst) {
		return buf, false
	}
	start := len(buf)
	for v := dst; v != int(t.src); {
		eid := t.parent[v]
		buf = append(buf, int(eid))
		v = t.g.edges[eid].other(v)
	}
	slices.Reverse(buf[start:])
	return buf, true
}

// AppendPathNodes appends the vertices of the path from the source to
// dst, source first — Path's Nodes — to buf and returns the extended
// slice (ok=false and buf unchanged when dst is unreachable). Like
// AppendPathEdges it allocates only to grow buf.
func (t *Tree) AppendPathNodes(buf []int, dst int) ([]int, bool) {
	if !t.reachable(dst) {
		return buf, false
	}
	start := len(buf)
	buf = append(buf, dst)
	for v := dst; v != int(t.src); {
		v = t.g.edges[t.parent[v]].other(v)
		buf = append(buf, v)
	}
	slices.Reverse(buf[start:])
	return buf, true
}

// other returns the endpoint of e opposite v.
func (e *Edge) other(v int) int {
	if e.U == v {
		return e.V
	}
	return e.U
}
