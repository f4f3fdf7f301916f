package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/risk"
)

// touched_test.go pins the touched-set stages to full rebuilds: the
// matrix stage's delta over the baseline risk tables against
// risk.BuildFrom on the final view, the final view's Stats against a
// full id-order scan, and the capacity stage's table and change lists
// against a full capacity scan. It also holds every Result of a set of
// edge-case scenarios to finite numbers.

// mixScenario draws a scenario shaped like the whatif-distinct mix:
// regional disasters of 50–300 km, cuts of 1–8 conduits, a provider
// removal with most-shared cuts, and open-access builds.
func mixScenario(rng *rand.Rand, eng *Engine) Scenario {
	m := eng.snap.res.Map
	isps := eng.snap.mx.ISPs
	switch p := rng.Intn(100); {
	case p < 40:
		return Scenario{Regions: []Region{{
			Lat: 25 + rng.Float64()*24, Lon: -124 + rng.Float64()*57,
			RadiusKm: 50 + rng.Float64()*250,
		}}}
	case p < 70:
		var sc Scenario
		for i := 1 + rng.Intn(8); i > 0; i-- {
			sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(rng.Intn(m.NumConduits())))
		}
		return sc
	case p < 85:
		return Scenario{RemoveISPs: []string{isps[rng.Intn(len(isps))]}, CutMostShared: 1 + rng.Intn(5)}
	default:
		var sc Scenario
		for i := 1 + rng.Intn(2); i > 0; i-- {
			a, b := rng.Intn(m.NumNodes()), rng.Intn(m.NumNodes())
			if a != b {
				sc.Additions = append(sc.Additions, Addition{A: m.Node(fiber.NodeID(a)).Key(), B: m.Node(fiber.NodeID(b)).Key()})
			}
		}
		return sc
	}
}

// edgeScenarios are the perturbations at the edges of the touched set
// and of every denominator: all providers gone, a removed provider
// re-added by an explicit build, a build lit by a provider outside the
// matrix, a most-shared clause beyond the conduit count, and a region
// that covers the map.
func edgeScenarios(eng *Engine) []namedScenario {
	m := eng.snap.res.Map
	isps := eng.snap.mx.ISPs
	k0, k1 := m.Node(0).Key(), m.Node(1).Key()
	kLast := m.Node(fiber.NodeID(m.NumNodes() - 1)).Key()
	return []namedScenario{
		{"remove-every-provider", Scenario{RemoveISPs: isps}},
		{"remove-then-readd", Scenario{
			RemoveISPs: []string{isps[0]},
			Additions:  []Addition{{A: k0, B: kLast, Tenants: []string{isps[0]}}, {A: k0, B: k1, Tenants: []string{isps[0]}}},
		}},
		{"addition-outside-matrix", Scenario{Additions: []Addition{{A: k0, B: k1, Tenants: []string{"Not A Provider"}}}}},
		{"most-shared-beyond-count", Scenario{CutMostShared: m.NumConduits() + 10}},
		{"region-1e6-km", Scenario{Regions: []Region{{Lat: 39, Lon: -98, RadiusKm: 1e6}}}},
	}
}

// scanStats is Stats as a full id-order scan of v's tenancy, with the
// provider count taken from the tenants seen.
func scanStats(v fiber.View) fiber.Stats {
	s := fiber.Stats{Nodes: v.NumNodes()}
	seen := make(map[string]bool)
	for cid := fiber.ConduitID(0); int(cid) < v.NumConduits(); cid++ {
		ts := v.Tenants(cid)
		for _, isp := range ts {
			seen[isp] = true
		}
		n := len(ts)
		s.Links += n
		if n == 0 {
			continue
		}
		s.Conduits++
		s.TotalKm += v.ConduitLengthKm(cid)
		s.MaxSharing = max(s.MaxSharing, n)
		if n >= 2 {
			s.SharedByGE2++
		}
		if n >= 3 {
			s.SharedByGE3++
		}
		if n >= 4 {
			s.SharedByGE4++
		}
		if n > 17 {
			s.SharedByGT17++
		}
	}
	s.ISPs = len(seen)
	if s.Conduits > 0 {
		s.AvgTenancy = float64(s.Links) / float64(s.Conduits)
	}
	return s
}

// scanCapacity is the capacity stage's network by a full scan: every
// conduit's capacity read from the view, and the dropped and grown
// lists by comparing each base conduit with the baseline table.
func scanCapacity(cb *capacityBaseline, g *graph.Graph, final fiber.View, nb int) ([]float64, capacityDelta) {
	caps := capacityTable(final, nil)
	var d capacityDelta
	for cid, c := range caps[:nb] {
		switch {
		case c < cb.caps[cid]:
			d.dropped = append(d.dropped, cid)
		case c > cb.caps[cid]:
			d.grown = append(d.grown, g.Edge(cid))
		}
	}
	for cid := nb; cid < len(caps); cid++ {
		if caps[cid] > 0 {
			a, b := final.ConduitEnds(fiber.ConduitID(cid))
			d.grown = append(d.grown, graph.Edge{U: int(a), V: int(b), Weight: caps[cid]})
		}
	}
	return caps, d
}

// TestTouchedSetMatchesFullScan holds the touched-set stages to full
// rebuilds over 2,000 generated scenarios (whatif-mix shapes and
// random composites) and the edge cases.
func TestTouchedSetMatchesFullScan(t *testing.T) {
	eng := newEngine(t, 0)
	base, cb := eng.snap.baseline(), eng.snap.capacity()
	rng := rand.New(rand.NewSource(26))
	var scs []Scenario
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			scs = append(scs, mixScenario(rng, eng))
		} else {
			scs = append(scs, randomScenario(rng, eng))
		}
	}
	for _, ns := range edgeScenarios(eng) {
		scs = append(scs, ns.sc)
	}
	scr := &evalScratch{ws: graph.NewWorkspace()}
	touchedTotal := 0
	for i, sc := range scs {
		sc, err := Resolve(sc)
		if err != nil {
			t.Fatal(err)
		}
		kept := eng.keptISPs(sc)
		ov, _, err := eng.buildOverlay(sc, kept)
		if err != nil {
			t.Fatal(err)
		}
		final, touched := ov.Final(), ov.Touched()
		touchedTotal += len(touched)
		label := fmt.Sprintf("scenario %d %+v", i, sc)

		got := base.risk.Perturb(final, touched, kept)
		want := risk.BuildFrom(final, kept)
		if !reflect.DeepEqual(got.SharingCounts, want.SharingCounts()) {
			t.Fatalf("%s: sharing counts %v, rebuild %v", label, got.SharingCounts, want.SharingCounts())
		}
		wantRank := want.Ranking()
		if len(got.Ranking) != len(wantRank) {
			t.Fatalf("%s: %d ranked providers, rebuild %d", label, len(got.Ranking), len(wantRank))
		}
		for pos, r := range wantRank {
			if g := got.Ranking[pos]; g.ISP != r.ISP || g.Mean != r.Mean {
				t.Fatalf("%s: rank %d is %s at %v, rebuild %s at %v", label, pos+1, g.ISP, g.Mean, r.ISP, r.Mean)
			}
		}

		if got, want := final.Stats(), scanStats(final); got != want {
			t.Fatalf("%s: Stats %+v, full scan %+v", label, got, want)
		}

		nb := ov.NumBaseConduits()
		if n := scr.capacityNetwork(cb, base.g, ov, final); n != len(touched) {
			t.Fatalf("%s: %d capacities recomputed for %d touched conduits", label, n, len(touched))
		}
		caps, d := scanCapacity(cb, base.g, final, nb)
		if !reflect.DeepEqual(scr.capW, caps) {
			t.Fatalf("%s: capacity table differs from the full scan", label)
		}
		if fmt.Sprint(scr.capD.dropped, scr.capD.grown) != fmt.Sprint(d.dropped, d.grown) {
			t.Fatalf("%s: dropped/grown %v %v, full scan %v %v", label, scr.capD.dropped, scr.capD.grown, d.dropped, d.grown)
		}
	}
	t.Logf("%d scenarios, %.1f conduits touched on average", len(scs), float64(touchedTotal)/float64(len(scs)))
}

// checkFinite fails on any NaN or ±Inf float reachable from v.
func checkFinite(t *testing.T, label, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("%s: %s = %v", label, path, f)
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			checkFinite(t, label, path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkFinite(t, label, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			checkFinite(t, label, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			checkFinite(t, label, fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value())
		}
	}
}

// TestEdgeScenarioResultsFinite: every Result of an edge-case scenario,
// with and without the opt-in latency and traffic stages, holds only
// finite numbers and marshals with encoding/json.
func TestEdgeScenarioResultsFinite(t *testing.T) {
	eng := newEngine(t, 0)
	ctx := context.Background()
	for _, ns := range edgeScenarios(eng) {
		for _, opt := range []Scenario{{}, {IncludeLatency: true, IncludeTraffic: true, Overrides: Overrides{LatencyMaxPairs: 40, Probes: 2000}}} {
			sc := ns.sc
			sc.IncludeLatency, sc.IncludeTraffic, sc.Overrides = opt.IncludeLatency, opt.IncludeTraffic, opt.Overrides
			label := fmt.Sprintf("%s (latency and traffic %v)", ns.name, opt.IncludeLatency)
			r, err := eng.Evaluate(ctx, sc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkFinite(t, label, "Result", reflect.ValueOf(r))
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s: Result does not marshal: %v", label, err)
			}
		}
	}
}
