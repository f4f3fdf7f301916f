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

// atlas_test.go pins the scenario atlas: the atlas the latency stage
// builds over the overlay's final view must be byte-identical to a
// build over the clone reference's fully materialized perturbed map.

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

// scenarioAtlas builds sc's atlas the way the latency stage does: over
// the final view of the scenario's overlay.
func scenarioAtlas(t *testing.T, eng *Engine, sc Scenario) *latency.Atlas {
	t.Helper()
	ov, _, err := eng.buildOverlay(sc, eng.keptISPs(sc))
	if err != nil {
		t.Fatal(err)
	}
	at, err := latency.Build(context.Background(), eng.snap.res.Map, ov.Final(), latency.Options{Workers: eng.opts.Workers})
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// materializedAtlas is the reference: the atlas of the clone
// reference's fully perturbed map (clone_ref_test.go).
func materializedAtlas(t *testing.T, eng *Engine, sc Scenario) *latency.Atlas {
	t.Helper()
	cm, err := cloneMaps(eng, sc)
	if err != nil {
		t.Fatal(err)
	}
	at, err := latency.Build(context.Background(), cm.final, cm.final, latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// twoIslandEngine builds an engine over a map with two lit components,
// A-B-C and D-E, and returns it with the D-E conduit and its ends.
func twoIslandEngine() (eng *Engine, bridge fiber.ConduitID, d, e fiber.NodeID) {
	m := fiber.NewMap()
	a := m.AddNode("A", "XX", geo.Point{Lat: 40, Lon: -100}, 1000000, -1)
	b := m.AddNode("B", "XX", geo.Point{Lat: 40, Lon: -98}, 1000000, -1)
	c := m.AddNode("C", "XX", geo.Point{Lat: 41, Lon: -99}, 1000000, -1)
	d = m.AddNode("D", "YY", geo.Point{Lat: 33, Lon: -84}, 1000000, -1)
	e = m.AddNode("E", "YY", geo.Point{Lat: 34, Lon: -85}, 1000000, -1)
	mk := func(x, y fiber.NodeID, corr int) fiber.ConduitID {
		id := m.EnsureConduit(x, y, corr, geo.GreatCircle(m.Node(x).Loc, m.Node(y).Loc, 2))
		m.AddTenant(id, "X")
		return id
	}
	mk(a, b, 0)
	mk(a, c, 1)
	mk(c, b, 2)
	bridge = mk(d, e, 3)
	return New(&mapbuilder.Result{Map: m}, risk.Build(m, nil), Options{Seed: 42}), bridge, d, e
}

// TestLatencyAtlasForDifferential: every scenario atlas equals the
// materialized reference. The empty scenario's also equals the
// baseline atlas, and cutting the two-island map's D-E conduit leaves
// D and E disconnected.
func TestLatencyAtlasForDifferential(t *testing.T) {
	eng := newEngine(t, 0)
	_, mx := build(t)
	m := eng.snap.res.Map
	keyOf := func(id fiber.NodeID) string { return m.Node(id).Key() }
	islands, bridge, d, e := twoIslandEngine()
	scenarios := []struct {
		name string
		eng  *Engine
		sc   Scenario
	}{
		{"empty", eng, Scenario{}},
		{"explicit-cuts", eng, Scenario{CutConduits: []fiber.ConduitID{0, 5, 9}}},
		{"shared-cuts", eng, Scenario{CutMostShared: 5}},
		{"remove-isp", eng, Scenario{RemoveISPs: []string{mx.ISPs[0]}}},
		{"addition", eng, Scenario{Additions: []Addition{{A: keyOf(0), B: keyOf(7)}}}},
		{"mixed", eng, Scenario{CutMostShared: 3, Additions: []Addition{{A: keyOf(2), B: keyOf(11)}}}},
		{"two-island", islands, Scenario{CutConduits: []fiber.ConduitID{bridge}}},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			got := scenarioAtlas(t, tc.eng, tc.sc)
			sameAtlas(t, "vs materialized map", got, materializedAtlas(t, tc.eng, tc.sc))
			switch tc.name {
			case "empty":
				base, err := eng.LatencyAtlas(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				sameAtlas(t, "vs baseline atlas", got, base)
			case "two-island":
				if di := got.RowIndex(d); !math.IsInf(got.Row(di)[e], 1) {
					t.Fatalf("D->E after cut = %v, want +Inf", got.Row(di)[e])
				}
			}
		})
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
