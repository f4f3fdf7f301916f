package graph

import (
	"math/rand"
	"testing"
)

// alloc_test.go is the allocation-regression guard: the whole point of
// the workspace API is that steady-state distance queries allocate
// nothing, so a regression here silently re-inflates every §5 sweep.
// The guards skip under -short (they are perf gates, not correctness)
// and under the race detector (instrumentation allocates).

// allocFixture builds a mid-sized connected multigraph and warms a
// workspace against it.
func allocFixture() (*Graph, *Workspace, WeightFunc) {
	rng := rand.New(rand.NewSource(23))
	const n = 400
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(9)))
	}
	for i := 0; i < 3*n; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
	}
	wf := func(eid int) float64 { return g.Edge(eid).Weight }
	ws := NewWorkspace()
	g.ShortestDistances(ws, 0, wf, nil) // warm: CSR build + workspace growth
	return g, ws, wf
}

func skipIfAllocsUnmeasurable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector")
	}
}

func TestShortestDistancesWSZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	g, ws, wf := allocFixture()
	dst := make([]float64, g.NumVertices())
	if avg := testing.AllocsPerRun(50, func() {
		dst = g.ShortestDistances(ws, 7, wf, dst)
	}); avg != 0 {
		t.Fatalf("ShortestDistances allocates %.1f per run, want 0", avg)
	}
}

func TestShortestDistanceWSZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	g, ws, wf := allocFixture()
	if avg := testing.AllocsPerRun(50, func() {
		g.ShortestDistance(ws, 3, g.NumVertices()-1, wf)
	}); avg != 0 {
		t.Fatalf("ShortestDistance allocates %.1f per run, want 0", avg)
	}
}

func TestMinimaxDistancesWSZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	g, ws, wf := allocFixture()
	dst := make([]float64, g.NumVertices())
	if avg := testing.AllocsPerRun(50, func() {
		dst = g.MinimaxDistances(ws, 5, wf, dst)
	}); avg != 0 {
		t.Fatalf("MinimaxDistances allocates %.1f per run, want 0", avg)
	}
}

// TestShortestPathWSOnlyPathAllocs pins the documented contract that a
// path query allocates only the returned Path (nodes + edges slices).
func TestShortestPathWSOnlyPathAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	g, ws, wf := allocFixture()
	if avg := testing.AllocsPerRun(50, func() {
		g.ShortestPath(ws, 3, g.NumVertices()-1, wf)
	}); avg > 2 {
		t.Fatalf("ShortestPath allocates %.1f per run, want <= 2 (the Path slices)", avg)
	}
}

// TestGlobalMinCutWSZeroAllocs pins the sparse Stoer-Wagner kernel to
// the same steady-state contract as the distance queries: after the
// first (growing) call, a min-cut query over a warmed workspace
// allocates nothing.
func TestGlobalMinCutWSZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	g, ws, _ := allocFixture()
	w := make([]float64, g.NumEdges())
	for eid := range w {
		w[eid] = g.Edge(eid).Weight
	}
	verts := make([]int, 0, 60)
	for v := 0; v < 60; v++ {
		verts = append(verts, v)
	}
	extra := []Edge{{U: 0, V: 59, Weight: 2}}
	g.GlobalMinCut(ws, verts, w, extra) // warm: scratch growth
	if avg := testing.AllocsPerRun(20, func() {
		g.GlobalMinCut(ws, verts, w, extra)
	}); avg != 0 {
		t.Fatalf("GlobalMinCut allocates %.1f per run, want 0", avg)
	}
}
