package graph

import (
	"math"
	"math/rand"
	"testing"
)

// mincutws_test.go pins the sparse GlobalMinCut kernel to the dense
// Stoer-Wagner reference below over randomized multigraphs. All
// weights are small integers (or +Inf masks), so weight sums are
// exactly representable and the unique minimum-cut value must match
// bit for bit regardless of the maximum-adjacency ordering each kernel
// happens to use.

// weightOf is edge id's cost under wf (nil meaning the default
// weight), the per-edge lookup the reference kernels use.
func (g *Graph) weightOf(wf WeightFunc, id int) float64 {
	if wf == nil {
		return g.edges[id].Weight
	}
	return wf(id)
}

// denseGlobalMinCut is the reference Stoer-Wagner: the weight of the
// minimum cut of the graph restricted to the given vertices, under wf
// (edges with +Inf weight are ignored; the remaining edge weights are
// summed across parallel edges), over a dense O(V²) matrix with O(V³)
// phases. It returns ok=false when fewer than two vertices are
// selected, and (0, true) when the restriction is disconnected.
func denseGlobalMinCut(g *Graph, vertices []int, wf WeightFunc) (float64, bool) {
	// Build a dense weight matrix over the selected vertices.
	n := len(vertices)
	if n < 2 {
		return 0, false
	}
	idx := make(map[int]int, n)
	for i, v := range vertices {
		idx[v] = i
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for eid := range g.edges {
		cost := g.weightOf(wf, eid)
		if math.IsInf(cost, 1) {
			continue
		}
		e := g.edges[eid]
		i, iok := idx[e.U]
		j, jok := idx[e.V]
		if !iok || !jok || i == j {
			continue
		}
		w[i][j] += cost
		w[j][i] += cost
	}

	// Disconnected restrictions have a trivial zero cut.
	if !denseConnected(w) {
		return 0, true
	}

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := math.Inf(1)
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase).
		inA := make([]bool, n)
		weights := make([]float64, n)
		prev, last := -1, -1
		for step := 0; step < len(active); step++ {
			sel := -1
			for _, v := range active {
				if !inA[v] && (sel == -1 || weights[v] > weights[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			prev, last = last, sel
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		// Cut-of-the-phase: weight of `last` against the rest.
		if weights[last] < best {
			best = weights[last]
		}
		// Merge last into prev.
		for _, v := range active {
			if v != last && v != prev {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		// Remove last from active.
		out := active[:0]
		for _, v := range active {
			if v != last {
				out = append(out, v)
			}
		}
		active = out
	}
	return best, true
}

// denseConnected reports whether the dense weight matrix describes a
// connected graph (positive weights as edges).
func denseConnected(w [][]float64) bool {
	n := len(w)
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := 0; u < n; u++ {
			if !seen[u] && w[v][u] > 0 {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}

// randMultigraph builds a connected-ish random multigraph with nv
// vertices and ~ne edges of integral weight 1..maxW.
func randMultigraph(rng *rand.Rand, nv, ne, maxW int) *Graph {
	g := New(nv)
	// Random spanning chain first so most graphs are connected.
	perm := rng.Perm(nv)
	for i := 1; i < nv; i++ {
		g.AddEdge(perm[i-1], perm[i], float64(1+rng.Intn(maxW)))
	}
	for i := 0; i < ne; i++ {
		u, v := rng.Intn(nv), rng.Intn(nv)
		g.AddEdge(u, v, float64(1+rng.Intn(maxW)))
	}
	return g
}

// weightsAndMask materializes an integral weight table with a random
// +Inf exclusion mask, returning both the table and the matching
// closure for the dense reference.
func weightsAndMask(rng *rand.Rand, g *Graph, maskFrac float64) ([]float64, WeightFunc) {
	w := make([]float64, g.NumEdges())
	for eid := range w {
		if rng.Float64() < maskFrac {
			w[eid] = math.Inf(1)
		} else {
			w[eid] = g.Edge(eid).Weight
		}
	}
	wf := func(eid int) float64 { return w[eid] }
	return w, wf
}

func TestGlobalMinCutWSMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ws := NewWorkspace() // reused across all cases on purpose
	for trial := 0; trial < 200; trial++ {
		nv := 2 + rng.Intn(14)
		g := randMultigraph(rng, nv, rng.Intn(3*nv), 4)
		w, wf := weightsAndMask(rng, g, []float64{0, 0.2, 0.5}[trial%3])

		// Random vertex subset (sometimes everything).
		var verts []int
		if trial%4 == 0 {
			for v := 0; v < nv; v++ {
				verts = append(verts, v)
			}
		} else {
			for v := 0; v < nv; v++ {
				if rng.Float64() < 0.7 {
					verts = append(verts, v)
				}
			}
		}

		want, wantOK := denseGlobalMinCut(g, verts, wf)
		got, gotOK := g.GlobalMinCut(ws, verts, w, nil)
		if want != got || wantOK != gotOK {
			t.Fatalf("trial %d: dense (%v,%v) != sparse (%v,%v) over %d verts of %d, %d edges",
				trial, want, wantOK, got, gotOK, len(verts), nv, g.NumEdges())
		}
	}
}

func TestGlobalMinCutWSExtraEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ws := NewWorkspace()
	for trial := 0; trial < 100; trial++ {
		nv := 3 + rng.Intn(12)
		g := randMultigraph(rng, nv, rng.Intn(2*nv), 3)
		w, _ := weightsAndMask(rng, g, 0.3)

		// Overlay edges: the sparse kernel sees them as `extra`; the dense
		// reference sees them appended to a copy of the graph.
		var extra []Edge
		for i := 0; i < rng.Intn(5); i++ {
			extra = append(extra, Edge{U: rng.Intn(nv), V: rng.Intn(nv), Weight: float64(1 + rng.Intn(3))})
		}
		g2 := New(nv)
		for eid := 0; eid < g.NumEdges(); eid++ {
			e := g.Edge(eid)
			g2.AddEdge(e.U, e.V, e.Weight)
		}
		for _, e := range extra {
			g2.AddEdge(e.U, e.V, e.Weight)
		}
		wf2 := func(eid int) float64 {
			if eid < len(w) {
				return w[eid]
			}
			return g2.Edge(eid).Weight
		}

		verts := make([]int, 0, nv)
		for v := 0; v < nv; v++ {
			if rng.Float64() < 0.8 {
				verts = append(verts, v)
			}
		}

		want, wantOK := denseGlobalMinCut(g2, verts, wf2)
		got, gotOK := g.GlobalMinCut(ws, verts, w, extra)
		if want != got || wantOK != gotOK {
			t.Fatalf("trial %d: dense (%v,%v) != sparse (%v,%v) with %d extra edges",
				trial, want, wantOK, got, gotOK, len(extra))
		}
	}
}

func TestGlobalMinCutWSEdgeCases(t *testing.T) {
	ws := NewWorkspace()
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	w := []float64{1, 1, 1}

	if got, ok := g.GlobalMinCut(ws, nil, w, nil); got != 0 || ok {
		t.Fatalf("empty vertex set: got (%v,%v), want (0,false)", got, ok)
	}
	if got, ok := g.GlobalMinCut(ws, []int{0}, w, nil); got != 0 || ok {
		t.Fatalf("single vertex: got (%v,%v), want (0,false)", got, ok)
	}
	// {0,1,2} is a path: min cut 1.
	if got, ok := g.GlobalMinCut(ws, []int{0, 1, 2}, w, nil); got != 1 || !ok {
		t.Fatalf("path: got (%v,%v), want (1,true)", got, ok)
	}
	// {0,1,3} spans two components: disconnected.
	if got, ok := g.GlobalMinCut(ws, []int{0, 1, 3}, w, nil); got != 0 || !ok {
		t.Fatalf("disconnected: got (%v,%v), want (0,true)", got, ok)
	}
	// Vertex 5 is isolated: disconnected.
	if got, ok := g.GlobalMinCut(ws, []int{0, 1, 5}, w, nil); got != 0 || !ok {
		t.Fatalf("isolated vertex: got (%v,%v), want (0,true)", got, ok)
	}
	// Masking the only path edge disconnects.
	w2 := []float64{math.Inf(1), 1, 1}
	if got, ok := g.GlobalMinCut(ws, []int{0, 1, 2}, w2, nil); got != 0 || !ok {
		t.Fatalf("masked edge: got (%v,%v), want (0,true)", got, ok)
	}
	// An extra edge can stitch the mask back together.
	if got, ok := g.GlobalMinCut(ws, []int{0, 1, 2}, w2, []Edge{{U: 0, V: 1, Weight: 1}}); got != 1 || !ok {
		t.Fatalf("extra edge bridge: got (%v,%v), want (1,true)", got, ok)
	}
}
