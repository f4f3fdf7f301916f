package scenario

import (
	"context"
	"math"
	"reflect"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

// atlas_test.go pins the overlay row-reuse rule: a scenario atlas that
// reuses untouched baseline rows must be byte-identical to a
// from-scratch build — both over the overlay view and over the fully
// materialized perturbed map.

// sameAtlas compares two atlases row by row with exact float equality
// (+Inf entries included) plus the derived pair tables.
func sameAtlas(t *testing.T, label string, got, want *latency.Atlas) {
	t.Helper()
	if got.NumSources() != want.NumSources() {
		t.Fatalf("%s: sources %d vs %d", label, got.NumSources(), want.NumSources())
	}
	for i := 0; i < want.NumSources(); i++ {
		gr, wr := got.Row(i), want.Row(i)
		if len(gr) != len(wr) {
			t.Fatalf("%s: row %d length %d vs %d", label, i, len(gr), len(wr))
		}
		for v := range wr {
			if gr[v] != wr[v] && !(gr[v] != gr[v] && wr[v] != wr[v]) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, v, gr[v], wr[v])
			}
		}
	}
	if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
		t.Fatalf("%s: pair tables diverge", label)
	}
}

// referenceAtlases rebuilds sc's perturbation the way LatencyAtlasFor
// does and returns the two from-scratch references: a no-reuse build
// over the overlay view, and a build over the clone reference's fully
// perturbed map (clone_ref_test.go).
func referenceAtlases(t *testing.T, eng *Engine, sc Scenario) (*latency.Atlas, *latency.Atlas) {
	t.Helper()
	ctx := context.Background()
	m := eng.snap.res.Map
	cuts, err := eng.ResolveCuts(sc)
	if err != nil {
		t.Fatal(err)
	}
	kept := eng.keptISPs(sc)
	pert := fiber.Perturbation{Cuts: cuts, RemoveISPs: sc.RemoveISPs}
	for _, ad := range sc.Additions {
		a, _ := m.NodeByKey(ad.A)
		b, _ := m.NodeByKey(ad.B)
		tenants := ad.Tenants
		if len(tenants) == 0 {
			tenants = kept
		}
		pert.Additions = append(pert.Additions, fiber.OverlayAddition{A: a, B: b, Tenants: tenants})
	}
	ov, err := fiber.NewOverlay(m, pert)
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := latency.BuildView(ctx, m, ov.Final(), nil, nil, latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := cloneMaps(eng, sc)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := latency.Build(ctx, cm.final, latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return viewed, materialized
}

func TestLatencyAtlasForDifferential(t *testing.T) {
	eng := newEngine(t, 0)
	_, mx := build(t)
	m := eng.snap.res.Map
	keyOf := func(id fiber.NodeID) string { return m.Node(id).Key() }
	scenarios := []struct {
		name string
		sc   Scenario
	}{
		{"empty", Scenario{}},
		{"explicit-cuts", Scenario{CutConduits: []fiber.ConduitID{0, 5, 9}}},
		{"shared-cuts", Scenario{CutMostShared: 5}},
		{"remove-isp", Scenario{RemoveISPs: []string{mx.ISPs[0]}}},
		{"addition", Scenario{Additions: []Addition{{A: keyOf(0), B: keyOf(7)}}}},
		{"mixed", Scenario{CutMostShared: 3, Additions: []Addition{{A: keyOf(2), B: keyOf(11)}}}},
	}
	ctx := context.Background()
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eng.LatencyAtlasFor(ctx, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			viewed, materialized := referenceAtlases(t, eng, tc.sc)
			sameAtlas(t, "vs overlay view", got, viewed)
			sameAtlas(t, "vs materialized map", got, materialized)
		})
	}
}

// TestLatencyAtlasForEmptyReusesEveryRow: an empty perturbation
// touches no lit component, so every baseline row is copied verbatim.
func TestLatencyAtlasForEmptyReusesEveryRow(t *testing.T) {
	eng := newEngine(t, 0)
	ctx := context.Background()
	base, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at, err := eng.LatencyAtlasFor(ctx, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if at.ReusedRows != base.NumSources() {
		t.Fatalf("ReusedRows = %d, want %d", at.ReusedRows, base.NumSources())
	}
	sameAtlas(t, "empty scenario vs baseline", at, base)
}

// TestLatencyAtlasForIslandReuse: on a two-island map, cutting the
// far island's only conduit must leave the near island's rows reused
// — the component rule recomputes only what the cut can reach.
func TestLatencyAtlasForIslandReuse(t *testing.T) {
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
	bridge := mk(d, e, 3)

	eng := New(&mapbuilder.Result{Map: m}, risk.Build(m, nil), Options{Seed: 42})
	ctx := context.Background()
	at, err := eng.LatencyAtlasFor(ctx, Scenario{CutConduits: []fiber.ConduitID{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if at.ReusedRows != 3 {
		t.Fatalf("ReusedRows = %d, want 3 (the untouched island)", at.ReusedRows)
	}
	_, materialized := referenceAtlases(t, eng, Scenario{CutConduits: []fiber.ConduitID{bridge}})
	sameAtlas(t, "island cut vs materialized", at, materialized)
	// The cut darkened D-E: the atlas must show them disconnected.
	if di := at.RowIndex(d); !math.IsInf(at.Row(di)[e], 1) {
		t.Fatalf("D->E after cut = %v, want +Inf", at.Row(di)[e])
	}
}

// TestLatencyAtlasMemoized: the baseline atlas is built once per
// engine.
func TestLatencyAtlasMemoized(t *testing.T) {
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	ctx := context.Background()
	at1, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at2, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if at1 != at2 {
		t.Fatal("second LatencyAtlas call rebuilt the memoized atlas")
	}
}
