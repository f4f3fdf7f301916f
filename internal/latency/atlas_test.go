package latency

import (
	"context"
	"math"
	"reflect"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/mapbuilder"
)

var cachedRes *mapbuilder.Result

// build returns one shared baseline map for the package's tests; the
// atlas never mutates it, so sharing is safe.
func build(t *testing.T) *mapbuilder.Result {
	t.Helper()
	if cachedRes == nil {
		cachedRes = mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
	}
	return cachedRes
}

// twoIslands builds a map with two lit components — A-B-C connected,
// D-E connected, no lit path between them — so cross-island pairs are
// unreachable and per-island perturbations leave the far island's
// rows untouched.
func twoIslands(t *testing.T) *fiber.Map {
	t.Helper()
	m := fiber.NewMap()
	a := m.AddNode("A", "XX", geo.Point{Lat: 40, Lon: -100}, 1000000, -1)
	b := m.AddNode("B", "XX", geo.Point{Lat: 40, Lon: -98}, 1000000, -1)
	c := m.AddNode("C", "XX", geo.Point{Lat: 41, Lon: -99}, 1000000, -1)
	d := m.AddNode("D", "YY", geo.Point{Lat: 33, Lon: -84}, 1000000, -1)
	e := m.AddNode("E", "YY", geo.Point{Lat: 34, Lon: -85}, 1000000, -1)
	mk := func(x, y fiber.NodeID, corr int) fiber.ConduitID {
		id := m.EnsureConduit(x, y, corr, geo.GreatCircle(m.Node(x).Loc, m.Node(y).Loc, 2))
		m.AddTenant(id, "X")
		return id
	}
	mk(a, b, 0)
	mk(a, c, 1)
	mk(c, b, 2)
	mk(d, e, 3)
	return m
}

func TestAtlasWorkerInvariance(t *testing.T) {
	res := build(t)
	ctx := context.Background()
	var base *Atlas
	for _, workers := range []int{1, 2, 6} {
		at, err := Build(ctx, res.Map, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = at
			continue
		}
		if !reflect.DeepEqual(base.mx.Sources, at.mx.Sources) {
			t.Fatalf("workers=%d changed the source list", workers)
		}
		if !reflect.DeepEqual(base.mx.Dist, at.mx.Dist) {
			t.Fatalf("workers=%d changed the distance matrix", workers)
		}
	}
}

// TestPairsMatchPerPair is the differential half of the tentpole: the
// batched build must reproduce the per-pair reference byte for byte —
// same pairs, same order, same floats.
func TestPairsMatchPerPair(t *testing.T) {
	res := build(t)
	ctx := context.Background()
	at, err := Build(ctx, res.Map, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pairsPerPair(ctx, res.Map, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := at.Pairs()
	if len(got) == 0 {
		t.Fatal("empty pair table")
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("batched pairs (%d) differ from per-pair reference (%d)", len(got), len(ref))
	}
}

func TestAtlasProperties(t *testing.T) {
	res := build(t)
	at, err := Build(context.Background(), res.Map, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if at.NumSources() == 0 {
		t.Fatal("no sources")
	}
	prev := fiber.NodeID(-1)
	for i := 0; i < at.NumSources(); i++ {
		src := at.Source(i)
		if src <= prev {
			t.Fatalf("sources not ascending at row %d", i)
		}
		prev = src
		if res.Map.Node(src).Population < 100000 {
			t.Fatalf("source %d below the major-city population floor", src)
		}
		if ri := at.RowIndex(src); ri != i {
			t.Fatalf("RowIndex(%d) = %d, want %d", src, ri, i)
		}
		if d := at.DistKm(i, src); d != 0 {
			t.Fatalf("self distance = %v", d)
		}
	}
	if at.RowIndex(fiber.NodeID(-1)) != -1 {
		t.Error("RowIndex must reject out-of-range ids")
	}
	for _, pl := range at.Pairs() {
		if pl.A >= pl.B {
			t.Fatalf("pair %d-%d violates A < B", pl.A, pl.B)
		}
		for _, v := range []float64{pl.FiberMs, pl.GeoMs, pl.Inflation} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite field in pair %+v", pl)
			}
		}
		// A fiber path cannot beat the geodesic c-latency bound.
		if pl.Inflation < 1-1e-9 {
			t.Fatalf("inflation %.6f < 1 for pair %d-%d", pl.Inflation, pl.A, pl.B)
		}
	}
}

// TestPairForCoLocated pins the degenerate-pair convention: a zero
// geodesic bound yields inflation 1, never NaN.
func TestPairForCoLocated(t *testing.T) {
	pl := pairFor(0, 1, 5, 0)
	if pl.Inflation != 1 {
		t.Fatalf("co-located inflation = %v, want 1", pl.Inflation)
	}
}

// TestPairsDropDisconnected: cross-island pairs have no lit path and
// must be dropped from the pair table, while the matrix keeps their
// +Inf entries.
func TestPairsDropDisconnected(t *testing.T) {
	m := twoIslands(t)
	at, err := Build(context.Background(), m, Options{MinPopulation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if at.NumSources() != 5 {
		t.Fatalf("sources = %d, want 5", at.NumSources())
	}
	// 3 intra-island pairs on ABC, 1 on DE; the 6 cross pairs drop.
	if got := len(at.Pairs()); got != 4 {
		t.Fatalf("pairs = %d, want 4", got)
	}
	if d := at.DistKm(0, 3); !math.IsInf(d, 1) {
		t.Fatalf("cross-island distance = %v, want +Inf", d)
	}
}

// TestBuildViewOfMapMatchesBuild: the map is its own view, so a view
// build over it must be byte-identical to the baseline build.
func TestBuildViewOfMapMatchesBuild(t *testing.T) {
	res := build(t)
	ctx := context.Background()
	base, err := Build(ctx, res.Map, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := BuildView(ctx, res.Map, res.Map, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viewed.ReusedRows != 0 {
		t.Fatalf("ReusedRows = %d without a reuse rule", viewed.ReusedRows)
	}
	if !reflect.DeepEqual(base.mx.Dist, viewed.mx.Dist) {
		t.Fatal("view build differs from baseline build")
	}
}

// TestBuildViewRowReuse: an approve-everything reuse rule must copy
// every row verbatim; approve-nothing must recompute them all — and
// both end byte-identical.
func TestBuildViewRowReuse(t *testing.T) {
	res := build(t)
	ctx := context.Background()
	base, err := Build(ctx, res.Map, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := BuildView(ctx, res.Map, res.Map, base, func(fiber.NodeID) bool { return true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if all.ReusedRows != base.NumSources() {
		t.Fatalf("ReusedRows = %d, want %d", all.ReusedRows, base.NumSources())
	}
	none, err := BuildView(ctx, res.Map, res.Map, base, func(fiber.NodeID) bool { return false }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if none.ReusedRows != 0 {
		t.Fatalf("ReusedRows = %d, want 0", none.ReusedRows)
	}
	if !reflect.DeepEqual(all.mx.Dist, base.mx.Dist) || !reflect.DeepEqual(none.mx.Dist, base.mx.Dist) {
		t.Fatal("reused and recomputed matrices diverge")
	}
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

// TestRowKernelZeroAlloc pins the warm-path claim from BuildMatrix's
// doc: one source's row compute with a grown workspace and an
// in-place destination row allocates nothing.
func TestRowKernelZeroAlloc(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	res := build(t)
	g := fiber.Graph(res.Map)
	wf := fiber.LitWeight(res.Map)
	srcs := sourceNodes(res.Map, 100000)
	if len(srcs) == 0 {
		t.Fatal("no sources")
	}
	ws := graph.NewWorkspace()
	row := make([]float64, g.NumVertices())
	g.ShortestDistances(ws, int(srcs[0]), wf, row) // warm workspace + weight table
	if avg := testing.AllocsPerRun(100, func() {
		g.ShortestDistances(ws, int(srcs[0]), wf, row)
	}); avg != 0 {
		t.Fatalf("warm row kernel allocates %.1f per run, want 0", avg)
	}
}
