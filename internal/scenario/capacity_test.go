package scenario

import (
	"context"
	"encoding/json"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
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
	h := BuildHeatmap(GridGeom{Hash: "h", Rows: 1, Cols: 1, Total: 1}, "b", []CellOutcome{out})
	if h.MaxLostTrafficGbps != out.LostTrafficGbps {
		t.Fatalf("BuildHeatmap MaxLostTrafficGbps = %v, want %v", h.MaxLostTrafficGbps, out.LostTrafficGbps)
	}
}

// reuseDecisions replays the capacity stage's reuse decision for sc on
// eng's baseline, one entry per demand: true when the demand keeps its
// baseline answer. Each reused demand is also re-flowed on the
// perturbed network, and must return exactly its baseline Gbps.
func reuseDecisions(t *testing.T, eng *Engine, sc Scenario) []bool {
	t.Helper()
	sc, err := Resolve(sc)
	if err != nil {
		t.Fatal(err)
	}
	ov, _, err := eng.buildOverlay(sc, eng.keptISPs(sc))
	if err != nil {
		t.Fatal(err)
	}
	cb, g := eng.snap.capacity(), eng.snap.baseline().g
	nb := ov.NumBaseConduits()
	scr := &evalScratch{ws: graph.NewWorkspace()}
	scr.capacityNetwork(cb, g, ov.Final(), nb)
	out := make([]bool, len(cb.demands))
	for i, d := range cb.demands {
		if out[i] = cb.reusable(i, scr.capW[:nb], &scr.capD); !out[i] {
			continue
		}
		if f := g.MaxFlow(scr.ws, int(d.s), int(d.t), scr.capW[:nb], scr.extra, d.gbps); f != cb.served[i] {
			t.Errorf("%+v: demand %d reused at %v Gbps, re-flows to %v", sc, i, cb.served[i], f)
		}
	}
	return out
}

// TestCapacityReuseRules drives each reuse rule to accept and to refuse
// on the seed-42 baseline. Every decision must match the rule read off
// the memo by hand, and every Result must be byte-identical to the
// clone reference, which re-flows every demand.
func TestCapacityReuseRules(t *testing.T) {
	overlay, clone := enginePair(t)
	snap := overlay.snap
	cb := snap.capacity()
	m := snap.res.Map
	nc := len(cb.caps)
	flowOn := func(i, cid int) float64 { return cb.flow[i*nc+cid] }

	check := func(t *testing.T, sc Scenario, want []bool) {
		t.Helper()
		got := reuseDecisions(t, overlay, sc)
		reused := 0
		for i := range want {
			if got[i] {
				reused++
			}
			if got[i] != want[i] {
				t.Errorf("demand %d: reused = %v, want %v", i, got[i], want[i])
			}
		}
		t.Logf("%d of %d demands reused", reused, len(want))
		diffJSON(t, t.Name(), evalJSON(t, overlay, sc), cloneJSON(t, clone, sc))
	}

	// carriers[cid] counts the demands whose baseline flow uses cid.
	carriers := make([]int, nc)
	for i := range cb.demands {
		for cid := 0; cid < nc; cid++ {
			if flowOn(i, cid) > 0 {
				carriers[cid]++
			}
		}
	}

	t.Run("A refuses a cut under a baseline flow", func(t *testing.T) {
		// The conduit fewest demands route over, so most still reuse.
		cut := -1
		for cid, n := range carriers {
			if n > 0 && (cut < 0 || n < carriers[cut]) {
				cut = cid
			}
		}
		if cut < 0 {
			t.Fatal("no conduit carries baseline flow")
		}
		want := make([]bool, len(cb.demands))
		for i := range want {
			want[i] = flowOn(i, cut) == 0
		}
		check(t, Scenario{CutConduits: []fiber.ConduitID{fiber.ConduitID(cut)}}, want)
	})

	t.Run("B refuses an addition across an unsaturated cut", func(t *testing.T) {
		d := -1
		for i, side := range cb.side {
			if side != nil {
				d = i
				break
			}
		}
		if d < 0 {
			t.Fatal("every demand is served in full; no cut to cross")
		}
		side := cb.side[d]
		u, v := cb.demands[d].s, cb.demands[d].t
		if !side[u] || side[v] {
			t.Fatalf("demand %d: cut side holds s %v, t %v", d, side[u], side[v])
		}
		want := make([]bool, len(cb.demands))
		for i, si := range cb.side {
			want[i] = si == nil || si[u] == si[v]
		}
		if want[d] {
			t.Fatalf("demand %d: an s-t addition does not cross its cut", d)
		}
		check(t, Scenario{Additions: []Addition{{A: m.Node(u).Key(), B: m.Node(v).Key()}}}, want)
	})

	t.Run("both accept a cut no flow uses", func(t *testing.T) {
		cut := -1
		for cid, n := range carriers {
			if n == 0 && cb.caps[cid] > 0 {
				cut = cid
				break
			}
		}
		if cut < 0 {
			t.Fatal("every lit conduit carries some demand's baseline flow")
		}
		want := make([]bool, len(cb.demands))
		for i := range want {
			want[i] = true
		}
		check(t, Scenario{CutConduits: []fiber.ConduitID{fiber.ConduitID(cut)}}, want)
	})
}
