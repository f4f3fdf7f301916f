package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestEdgeBetweennessPath(t *testing.T) {
	// Path 0-1-2-3: middle edge carries the most pairs.
	g := New(4)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e23 := g.AddEdge(2, 3, 1)
	bc := g.EdgeBetweenness(NewWorkspace(), nil, nil)
	// Ordered pairs crossing e12: (0,2),(0,3),(1,2),(1,3) and reverses = 8.
	if bc[e12] != 8 {
		t.Errorf("middle edge = %v, want 8", bc[e12])
	}
	// e01 carries (0,1),(0,2),(0,3) and reverses = 6.
	if bc[e01] != 6 || bc[e23] != 6 {
		t.Errorf("end edges = %v, %v, want 6", bc[e01], bc[e23])
	}
}

func TestEdgeBetweennessSplitsEqualPaths(t *testing.T) {
	// Square 0-1-3 and 0-2-3 with equal weights: the pair (0,3)
	// splits evenly across the two routes.
	g := New(4)
	e01 := g.AddEdge(0, 1, 1)
	e13 := g.AddEdge(1, 3, 1)
	e02 := g.AddEdge(0, 2, 1)
	e23 := g.AddEdge(2, 3, 1)
	bc := g.EdgeBetweenness(NewWorkspace(), nil, nil)
	// Each side edge: pairs (0,1)x2 full + (0,3)x2 half + (1,3)x2... let's
	// check symmetry instead of exact values.
	if math.Abs(bc[e01]-bc[e02]) > 1e-9 || math.Abs(bc[e13]-bc[e23]) > 1e-9 {
		t.Errorf("asymmetric betweenness: %v", bc)
	}
	if math.Abs(bc[e01]-bc[e13]) > 1e-9 {
		t.Errorf("path halves differ: %v vs %v", bc[e01], bc[e13])
	}
	// Total dependency conservation: sum over edges of betweenness
	// equals sum over ordered pairs of path length (hops weighted by
	// path share). For the square: 12 ordered pairs, adjacent pairs (8)
	// contribute 1 hop, opposite pairs (4... wait (0,3),(3,0),(1,2),(2,1))
	// contribute 2 hops each = 8+8 = 16.
	var total float64
	for _, v := range bc {
		total += v
	}
	if math.Abs(total-16) > 1e-9 {
		t.Errorf("total = %v, want 16", total)
	}
}

func TestEdgeBetweennessRespectsWeightFunc(t *testing.T) {
	g := New(3)
	direct := g.AddEdge(0, 2, 1)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(1, 2, 1)
	banned := func(eid int) float64 {
		if eid == direct {
			return math.Inf(1)
		}
		return 1
	}
	bc := g.EdgeBetweenness(NewWorkspace(), banned, nil)
	if bc[direct] != 0 {
		t.Errorf("banned edge has betweenness %v", bc[direct])
	}
	if bc[a] == 0 || bc[b] == 0 {
		t.Error("detour edges should carry paths")
	}
}

func TestGlobalMinCutBridge(t *testing.T) {
	// Two triangles joined by a single bridge: min cut 1.
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 3, 1)
	g.AddEdge(2, 3, 1) // bridge
	unit := func(int) float64 { return 1 }
	cut, ok := g.GlobalMinCut(NewWorkspace(), []int{0, 1, 2, 3, 4, 5}, g.Weights(unit, nil), nil)
	if !ok || cut != 1 {
		t.Errorf("cut = %v,%v want 1", cut, ok)
	}
}

func TestGlobalMinCutCycle(t *testing.T) {
	// A 5-cycle needs 2 cuts.
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5, 1)
	}
	unit := func(int) float64 { return 1 }
	cut, ok := g.GlobalMinCut(NewWorkspace(), []int{0, 1, 2, 3, 4}, g.Weights(unit, nil), nil)
	if !ok || cut != 2 {
		t.Errorf("cut = %v,%v want 2", cut, ok)
	}
}

func TestGlobalMinCutComplete(t *testing.T) {
	// K4 with unit weights: min cut 3.
	g := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	unit := func(int) float64 { return 1 }
	cut, ok := g.GlobalMinCut(NewWorkspace(), []int{0, 1, 2, 3}, g.Weights(unit, nil), nil)
	if !ok || cut != 3 {
		t.Errorf("cut = %v,%v want 3", cut, ok)
	}
}

func TestGlobalMinCutDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	unit := func(int) float64 { return 1 }
	cut, ok := g.GlobalMinCut(NewWorkspace(), []int{0, 1, 2, 3}, g.Weights(unit, nil), nil)
	if !ok || cut != 0 {
		t.Errorf("disconnected cut = %v,%v want 0,true", cut, ok)
	}
}

func TestGlobalMinCutDegenerate(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	if _, ok := g.GlobalMinCut(NewWorkspace(), []int{0}, g.Weights(nil, nil), nil); ok {
		t.Error("single vertex should not have a cut")
	}
	if _, ok := g.GlobalMinCut(NewWorkspace(), nil, g.Weights(nil, nil), nil); ok {
		t.Error("empty vertex set should not have a cut")
	}
}

func TestGlobalMinCutSubset(t *testing.T) {
	// Restricting to a subset ignores outside edges.
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1) // triangle over {0,1,2}
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	unit := func(int) float64 { return 1 }
	cut, ok := g.GlobalMinCut(NewWorkspace(), []int{0, 1, 2}, g.Weights(unit, nil), nil)
	if !ok || cut != 2 {
		t.Errorf("triangle cut = %v,%v want 2", cut, ok)
	}
}

// Brute-force comparison on random small graphs: Stoer-Wagner equals
// the minimum over all 2^(n-1) bipartitions.
func TestGlobalMinCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	unit := func(int) float64 { return 1 }
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, 1)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		verts := make([]int, n)
		for i := range verts {
			verts[i] = i
		}
		got, ok := g.GlobalMinCut(NewWorkspace(), verts, g.Weights(unit, nil), nil)
		if !ok {
			t.Fatal("no cut")
		}
		want := bruteMinCut(g, n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: stoer-wagner %v != brute %v", trial, got, want)
		}
	}
}

func bruteMinCut(g *Graph, n int) float64 {
	best := math.Inf(1)
	for mask := 1; mask < (1 << (n - 1)); mask++ {
		var cut float64
		for eid := 0; eid < g.NumEdges(); eid++ {
			e := g.Edge(eid)
			su := mask>>(e.U)&1 == 1
			sv := mask>>(e.V)&1 == 1
			// vertex n-1 is always on side 0 (mask has n-1 bits)
			if e.U == n-1 {
				su = false
			}
			if e.V == n-1 {
				sv = false
			}
			if su != sv {
				cut++
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}
