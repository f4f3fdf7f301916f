package scenario

import (
	"context"
	"encoding/json"
	"testing"

	"intertubes/internal/fiber"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// capacity_test.go covers the capacity layer end to end: the gravity
// demand matrix, the lost-traffic stage against the clone reference,
// and the acceptance scenario — a circular disaster over the busiest
// city strands a nonzero number of Gbps, bit-identically to the clone
// reference and at any sweep worker count.

// biggestCityRegion centers a disaster circle on the map's most
// populous node — guaranteed to hit the top gravity demand pair.
func biggestCityRegion(t *testing.T, radiusKm float64) Region {
	t.Helper()
	res, _ := build(t)
	m := res.Map
	best := fiber.NodeID(0)
	for i := range m.Nodes {
		if m.Nodes[i].Population > m.Nodes[best].Population {
			best = fiber.NodeID(i)
		}
	}
	loc := m.Node(best).Loc
	return Region{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: radiusKm}
}

func TestLostTrafficCircularDisaster(t *testing.T) {
	overlay, clone := enginePair(t)
	sc := Scenario{Regions: []Region{biggestCityRegion(t, 150)}}

	r, err := overlay.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	lt := r.LostTraffic
	if lt == nil {
		t.Fatal("circular disaster Result has no LostTraffic")
	}
	if lt.Demands == 0 || lt.OfferedGbps <= 0 {
		t.Fatalf("empty demand matrix: %+v", lt)
	}
	if lt.ServedBeforeGbps <= 0 {
		t.Fatalf("baseline serves no traffic: %+v", lt)
	}
	if lt.LostGbps <= 0 {
		t.Fatalf("circular disaster strands no traffic: %+v", lt)
	}
	if lt.ServedBeforeGbps-lt.ServedAfterGbps != lt.LostGbps {
		t.Fatalf("LostGbps inconsistent with served columns: %+v", lt)
	}

	// Bit-identical between the engine and the clone reference.
	diffJSON(t, "circular disaster", evalJSON(t, overlay, sc), cloneJSON(t, clone, sc))
}

func TestLostTrafficZeroScenario(t *testing.T) {
	overlay, _ := enginePair(t)
	r, err := overlay.Evaluate(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	lt := r.LostTraffic
	if lt == nil {
		t.Fatal("zero scenario Result has no LostTraffic")
	}
	if lt.LostGbps != 0 {
		t.Fatalf("zero scenario lost %v Gbps, want exactly 0", lt.LostGbps)
	}
	if lt.ServedAfterGbps != lt.ServedBeforeGbps {
		t.Fatalf("zero scenario served columns differ: %+v", lt)
	}
}

// TestLostTrafficAdditionCanGain: an addition-only scenario may serve
// more than the baseline; LostGbps goes negative, never positive.
func TestLostTrafficAdditionCanGain(t *testing.T) {
	overlay, clone := enginePair(t)
	res, _ := build(t)
	m := res.Map
	k0 := m.Node(0).Key()
	kLast := m.Node(fiber.NodeID(m.NumNodes() - 1)).Key()
	sc := Scenario{Additions: []Addition{{A: k0, B: kLast}}}

	r, err := overlay.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.LostTraffic.LostGbps > 0 {
		t.Fatalf("addition-only scenario lost %v Gbps, want <= 0", r.LostTraffic.LostGbps)
	}
	diffJSON(t, "addition gain", evalJSON(t, overlay, sc), cloneJSON(t, clone, sc))
}

// TestLostTrafficSweepWorkerInvariance: the capacity stage must not
// break the sweep's bit-identical-at-any-worker-count contract.
func TestLostTrafficSweepWorkerInvariance(t *testing.T) {
	overlay, clone := enginePair(t)
	scs := []Scenario{
		{Regions: []Region{biggestCityRegion(t, 150)}},
		{CutMostShared: 5},
		{},
	}
	ctx := context.Background()
	one := Sweep(ctx, overlay, scs, 1)
	many := Sweep(ctx, overlay, scs, 8)
	for i := range scs {
		j1 := mustJSON(t, one[i].Result)
		j8 := mustJSON(t, many[i].Result)
		jc := mustJSON(t, referenceOutcome(ctx, clone, scs[i]).Result)
		diffJSON(t, "workers 1 vs 8", j8, j1)
		diffJSON(t, "overlay vs clone", j1, jc)
		if one[i].Result.LostTraffic == nil {
			t.Fatalf("sweep slot %d has no LostTraffic", i)
		}
	}
}

// TestReduceCellCarriesLostTraffic: the grid-sweep heatmap reduction
// propagates the Gbps severity alongside MeanDisconnection.
func TestReduceCellCarriesLostTraffic(t *testing.T) {
	overlay, _ := enginePair(t)
	sc := Scenario{Regions: []Region{biggestCityRegion(t, 150)}}
	r, err := overlay.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	cell := GridCell{Index: 0, Row: 0, Col: 0, Lat: 1, Lon: 2, RadiusKm: 150}
	out := ReduceCell(cell, Outcome{Result: r})
	if out.LostTrafficGbps != r.LostTraffic.LostGbps {
		t.Fatalf("ReduceCell LostTrafficGbps = %v, want %v", out.LostTrafficGbps, r.LostTraffic.LostGbps)
	}
	h := BuildHeatmap(GridGeom{Hash: "h", Rows: 1, Cols: 1, Total: 1}, 1, []CellOutcome{out})
	if h.MaxLostTrafficGbps != out.LostTrafficGbps {
		t.Fatalf("BuildHeatmap MaxLostTrafficGbps = %v, want %v", h.MaxLostTrafficGbps, out.LostTrafficGbps)
	}
}
