package resilience

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

var (
	cachedRes *mapbuilder.Result
	cachedMx  *risk.Matrix
)

func build(t *testing.T) (*mapbuilder.Result, *risk.Matrix) {
	t.Helper()
	if cachedRes == nil {
		cachedRes = mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
		cachedMx = risk.Build(cachedRes.Map, nil)
	}
	return cachedRes, cachedMx
}

// ringMap builds a 4-node ring owned entirely by one ISP, plus one
// spur node.
//
//	0-1-2-3-0 ring (X), 3-4 spur (X)
func ringMap(t *testing.T) (*fiber.Map, []fiber.ConduitID) {
	t.Helper()
	m := fiber.NewMap()
	var nodes []fiber.NodeID
	for i := 0; i < 5; i++ {
		nodes = append(nodes, m.AddNode(string(rune('A'+i)), "XX",
			geo.Point{Lat: 40 + float64(i), Lon: -100}, 1, -1))
	}
	mk := func(a, b fiber.NodeID, corr int) fiber.ConduitID {
		cid := m.EnsureConduit(a, b, corr, geo.GreatCircle(m.Node(a).Loc, m.Node(b).Loc, 2))
		m.AddTenant(cid, "X")
		return cid
	}
	var cids []fiber.ConduitID
	cids = append(cids, mk(nodes[0], nodes[1], 0))
	cids = append(cids, mk(nodes[1], nodes[2], 1))
	cids = append(cids, mk(nodes[2], nodes[3], 2))
	cids = append(cids, mk(nodes[3], nodes[0], 3))
	cids = append(cids, mk(nodes[3], nodes[4], 4)) // spur
	return m, cids
}

func TestCutImpactRing(t *testing.T) {
	m, cids := ringMap(t)
	mx := risk.Build(m, nil)

	// One ring cut: still connected.
	impacts := CutImpact(m, mx, []fiber.ConduitID{cids[0]})
	if len(impacts) != 1 {
		t.Fatalf("impacts = %v", impacts)
	}
	if impacts[0].DisconnectedPairs != 0 || impacts[0].LargestComponent != 1 {
		t.Errorf("one ring cut should not disconnect: %+v", impacts[0])
	}
	if impacts[0].CutsHit != 1 {
		t.Errorf("CutsHit = %d", impacts[0].CutsHit)
	}

	// Cutting the spur strands one node: largest component 4/5,
	// disconnected ordered pairs 8 of 20.
	impacts = CutImpact(m, mx, []fiber.ConduitID{cids[4]})
	if math.Abs(impacts[0].LargestComponent-0.8) > 1e-9 {
		t.Errorf("largest = %v, want 0.8", impacts[0].LargestComponent)
	}
	if math.Abs(impacts[0].DisconnectedPairs-0.4) > 1e-9 {
		t.Errorf("disconnected = %v, want 0.4", impacts[0].DisconnectedPairs)
	}

	// Two opposite ring cuts split 2-2(+spur)...: cutting conduits 0
	// and 2 leaves components {1,2} and {3,4,0}: sizes 2 and 3.
	impacts = CutImpact(m, mx, []fiber.ConduitID{cids[0], cids[2]})
	if math.Abs(impacts[0].LargestComponent-0.6) > 1e-9 {
		t.Errorf("largest = %v, want 0.6", impacts[0].LargestComponent)
	}
}

func TestMeanDisconnection(t *testing.T) {
	ims := []Impact{{DisconnectedPairs: 0.2}, {DisconnectedPairs: 0.4}}
	if got := MeanDisconnection(ims); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if MeanDisconnection(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestTargetedBeatsRandom(t *testing.T) {
	res, mx := build(t)
	k := 8
	targetedSharing := MeanDisconnection(CutImpact(res.Map, mx, TargetedBySharing(mx, k)))
	targetedBetween := MeanDisconnection(CutImpact(res.Map, mx, TargetedByBetweenness(res.Map, k)))
	random := RandomCuts(res.Map, mx, k, 12, 7)

	// The paper's core risk story: the shared choke points are the
	// high-impact targets — cutting them disconnects many providers at
	// once, well beyond random cuts.
	if targetedSharing <= random*1.5 {
		t.Errorf("sharing-targeted %.4f not clearly above random %.4f", targetedSharing, random)
	}
	// Betweenness targets the busiest trunks, but those are exactly
	// where providers keep ring protection, so it does NOT maximize
	// disconnection — a finding of this reproduction, asserted here so
	// it is noticed if the substrate changes.
	if targetedBetween >= targetedSharing {
		t.Errorf("betweenness-targeted %.4f >= sharing-targeted %.4f; expected rings to absorb trunk cuts",
			targetedBetween, targetedSharing)
	}
}

func TestRandomCutsEdgeCases(t *testing.T) {
	res, mx := build(t)
	if RandomCuts(res.Map, mx, 0, 5, 1) != 0 {
		t.Error("k=0 should be 0")
	}
	if RandomCuts(res.Map, mx, 5, 0, 1) != 0 {
		t.Error("trials=0 should be 0")
	}
	// Deterministic in seed.
	a := RandomCuts(res.Map, mx, 4, 3, 9)
	b := RandomCuts(res.Map, mx, 4, 3, 9)
	if a != b {
		t.Errorf("random cuts not deterministic: %v vs %v", a, b)
	}
}

func TestPartitionCostsRing(t *testing.T) {
	m, _ := ringMap(t)
	costs := PartitionCosts(m, []string{"X"})
	if len(costs) != 1 {
		t.Fatalf("costs = %v", costs)
	}
	// The spur node hangs off one conduit: min cut 1.
	if costs[0].MinCuts != 1 || costs[0].Nodes != 5 {
		t.Errorf("cost = %+v, want MinCuts 1", costs[0])
	}
}

func TestPartitionCostsFullMap(t *testing.T) {
	res, _ := build(t)
	costs := PartitionCosts(res.Map, []string{"Level 3", "Deutsche Telekom", "Suddenlink"})
	if len(costs) != 3 {
		t.Fatalf("costs = %v", costs)
	}
	for _, pc := range costs {
		if pc.MinCuts < 0 || pc.MinCuts > 10 {
			t.Errorf("%s min cuts = %d, implausible", pc.ISP, pc.MinCuts)
		}
		if pc.Nodes == 0 {
			t.Errorf("%s has no nodes", pc.ISP)
		}
	}
	// Sorted ascending.
	for i := 1; i < len(costs); i++ {
		if costs[i].MinCuts < costs[i-1].MinCuts {
			t.Error("not sorted")
		}
	}
	// Every real backbone has spurs, so min cut is small — the point
	// of the analysis is that partitioning a single provider is cheap.
	if costs[0].MinCuts > 2 {
		t.Errorf("weakest provider needs %d cuts; expected 1-2", costs[0].MinCuts)
	}
}

func TestCriticality(t *testing.T) {
	res, mx := build(t)
	crit := Criticality(res.Map, mx, 10)
	if len(crit) != 10 {
		t.Fatalf("criticality rows = %d", len(crit))
	}
	for i, c := range crit {
		if c.Betweenness <= 0 {
			t.Errorf("row %d betweenness = %v", i, c.Betweenness)
		}
		if c.A == "" || c.B == "" {
			t.Errorf("row %d missing endpoints", i)
		}
		if i > 0 && c.Betweenness > crit[i-1].Betweenness {
			t.Error("not sorted by betweenness")
		}
	}
	// The paper's story: high-betweenness conduits are heavily shared.
	var avgSharing float64
	for _, c := range crit {
		avgSharing += float64(c.Sharing)
	}
	avgSharing /= float64(len(crit))
	if avgSharing < mx.MeanSharing() {
		t.Errorf("critical conduits avg sharing %.2f below map mean %.2f", avgSharing, mx.MeanSharing())
	}
}

func TestTargetedByBetweennessBounds(t *testing.T) {
	res, _ := build(t)
	if got := TargetedByBetweenness(res.Map, 5); len(got) != 5 {
		t.Errorf("k=5 returned %d", len(got))
	}
	if got := TargetedByBetweenness(res.Map, 100000); len(got) > res.Map.Stats().Conduits {
		t.Error("returned more conduits than exist")
	}
}

func TestConduitsInRegion(t *testing.T) {
	res, _ := build(t)
	// A 150 km circle around Salt Lake City catches the I-80/I-15
	// funnels.
	slc := geo.Point{Lat: 40.76, Lon: -111.89}
	idx := NewRegionIndex(res.Map)
	got, _ := idx.Conduits(Region{Center: slc, RadiusKm: 150})
	if len(got) < 3 {
		t.Fatalf("only %d conduits near SLC", len(got))
	}
	for _, cid := range got {
		c := res.Map.Conduit(cid)
		if d := c.Path.DistanceToKm(slc); d > 150 {
			t.Errorf("conduit %d is %.0f km away", cid, d)
		}
	}
	// A circle in the middle of nowhere catches nothing.
	if got, _ := idx.Conduits(Region{Center: geo.Point{Lat: 44.5, Lon: -107.5}, RadiusKm: 30}); len(got) != 0 {
		t.Errorf("empty Wyoming contains conduits: %v", got)
	}
}

// scanRegion is the per-call region scan the index replaced: bounds
// and longitude scale recomputed for every conduit, then sorted. It
// also counts the conduits past the bounds prefilter.
func scanRegion(m *fiber.Map, r Region) (out []fiber.ConduitID, candidates int) {
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		if !c.Path.Bounds().ExpandKm(r.RadiusKm).Contains(r.Center) {
			continue
		}
		candidates++
		if c.Path.DistanceToKm(r.Center) <= r.RadiusKm {
			out = append(out, c.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, candidates
}

// TestRegionIndexMatchesScan: on 1,000 random regions, centred over
// and around the map with radii from 1 km to beyond the whole map, the
// index cuts exactly what the per-call scan cuts and lets exactly as
// many conduits past the prefilter.
func TestRegionIndexMatchesScan(t *testing.T) {
	res, _ := build(t)
	ix := NewRegionIndex(res.Map)
	rng := rand.New(rand.NewSource(26))
	hits := 0
	for i := 0; i < 1000; i++ {
		r := Region{
			Center:   geo.Point{Lat: 15 + rng.Float64()*45, Lon: -135 + rng.Float64()*80},
			RadiusKm: math.Pow(10, rng.Float64()*4), // 1 km to 10,000 km
		}
		got, gotN := ix.Conduits(r)
		want, wantN := scanRegion(res.Map, r)
		if !reflect.DeepEqual(got, want) || gotN != wantN {
			t.Fatalf("%+v: index cuts %v (%d candidates), scan %v (%d)", r, got, gotN, want, wantN)
		}
		if len(got) > 0 {
			hits++
		}
	}
	if hits < 300 {
		t.Errorf("only %d of 1000 regions cut anything", hits)
	}
}
