package resilience

import (
	"math"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/risk"
)

// view_test.go pins the overlay-aware entry points to their clone-path
// references: ImpactOn must reproduce CutImpact's rows exactly, and
// PartitionCostWS must agree with PartitionCosts through the dense
// kernel, on both the raw baseline map and a perturbed overlay view.

// impactByISP indexes CutImpact's sorted output by provider.
func impactByISP(impacts []Impact) map[string]Impact {
	out := make(map[string]Impact, len(impacts))
	for _, im := range impacts {
		out[im.ISP] = im
	}
	return out
}

// rowFromView builds one provider's dense row from a view whose first
// nb conduits are g's edges (the rest overlay-only): 1 on its
// conduits and +Inf elsewhere, its overlay-only conduits as extra
// edges, and its footprint v.NodesOf(isp).
func rowFromView(g *graph.Graph, v fiber.View, nb int, isp string) (verts []int, row []float64, extra []graph.Edge) {
	row = make([]float64, g.NumEdges())
	for eid := range row {
		row[eid] = math.Inf(1)
		if v.HasTenant(fiber.ConduitID(eid), isp) {
			row[eid] = 1
		}
	}
	for cid := fiber.ConduitID(nb); int(cid) < v.NumConduits(); cid++ {
		if v.HasTenant(cid, isp) {
			a, b := v.ConduitEnds(cid)
			extra = append(extra, graph.Edge{U: int(a), V: int(b), Weight: 1})
		}
	}
	for _, n := range v.NodesOf(isp) {
		verts = append(verts, int(n))
	}
	return verts, row, extra
}

// impactOnView runs ImpactOn on the row rowFromView builds.
func impactOnView(s *ImpactScratch, g *graph.Graph, v fiber.View, nb int, isp string, cuts []fiber.ConduitID, cut []bool) Impact {
	verts, row, extra := rowFromView(g, v, nb, isp)
	return s.ImpactOn(g, isp, verts, row, extra, cuts, cut)
}

func cutIndicator(n int, cuts []fiber.ConduitID) []bool {
	cut := make([]bool, n)
	for _, cid := range cuts {
		cut[cid] = true
	}
	return cut
}

func TestImpactOnMatchesCutImpactRing(t *testing.T) {
	m, cids := ringMap(t)
	mx := risk.Build(m, nil)
	g := m.Graph()
	var s ImpactScratch
	cutSets := [][]fiber.ConduitID{
		nil,
		{cids[0]},
		{cids[4]},
		{cids[0], cids[2]},
		{cids[0], cids[1], cids[2], cids[3], cids[4]},
	}
	for _, cuts := range cutSets {
		want := impactByISP(CutImpact(m, mx, cuts))
		cut := cutIndicator(m.NumConduits(), cuts)
		for _, isp := range mx.ISPs {
			got := impactOnView(&s, g, m, m.NumConduits(), isp, cuts, cut)
			if got != want[isp] {
				t.Errorf("cuts %v isp %s: ImpactOn %+v != CutImpact %+v", cuts, isp, got, want[isp])
			}
		}
	}
}

func TestImpactOnMatchesCutImpactAtlas(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	cuts := mx.TopShared(5)
	want := impactByISP(CutImpact(m, mx, cuts))
	cut := cutIndicator(m.NumConduits(), cuts)
	g := m.Graph()
	var s ImpactScratch
	for _, isp := range mx.ISPs {
		got := impactOnView(&s, g, m, m.NumConduits(), isp, cuts, cut)
		if got != want[isp] {
			t.Errorf("isp %s: ImpactOn %+v != CutImpact %+v", isp, got, want[isp])
		}
	}
}

func TestImpactOnOverlayMatchesMutatedClone(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	isps := mx.ISPs

	pert := fiber.Perturbation{
		Cuts:       mx.TopShared(3),
		RemoveISPs: []string{isps[0]},
		Additions: []fiber.OverlayAddition{
			{A: 0, B: fiber.NodeID(m.NumNodes() - 1), Tenants: []string{isps[1], isps[2]}},
		},
	}
	ov, err := fiber.NewOverlay(m, pert)
	if err != nil {
		t.Fatal(err)
	}

	// Clone path: removals + additions lit (the "plus" map CutImpact
	// runs on), per the engine's order. Cuts stay lit; CutImpact
	// excludes them by weight.
	pmPlus := m.Clone()
	for _, isp := range pert.RemoveISPs {
		pmPlus.RemoveISP(isp)
	}
	for _, ad := range pert.Additions {
		path := geo.Polyline{pmPlus.Node(ad.A).Loc, pmPlus.Node(ad.B).Loc}
		cid := pmPlus.EnsureConduit(ad.A, ad.B, -1, path)
		for _, isp := range ad.Tenants {
			pmPlus.AddTenant(cid, isp)
		}
	}

	kept := isps[1:]
	mx2 := risk.BuildFrom(ov.Final(), kept)
	want := impactByISP(CutImpact(pmPlus, mx2, pert.Cuts))
	cut := cutIndicator(ov.NumBaseConduits(), pert.Cuts)
	plus := ov.Plus()
	g := m.Graph()
	var s ImpactScratch
	for _, isp := range mx2.ISPs {
		got := impactOnView(&s, g, plus, ov.NumBaseConduits(), isp, pert.Cuts, cut)
		if got != want[isp] {
			t.Errorf("isp %s: overlay ImpactOn %+v != clone CutImpact %+v", isp, got, want[isp])
		}
	}
}

func TestPartitionCostWSMatchesDense(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	g := m.Graph()
	ws := graph.NewWorkspace()

	wantByISP := make(map[string]int)
	for _, pc := range PartitionCosts(m, mx.ISPs) {
		wantByISP[pc.ISP] = pc.MinCuts
	}

	w := make([]float64, g.NumEdges())
	for _, isp := range mx.ISPs {
		for eid := range w {
			if m.Conduit(fiber.ConduitID(eid)).HasTenant(isp) {
				w[eid] = 1
			} else {
				w[eid] = math.Inf(1)
			}
		}
		nodes := m.NodesOf(isp)
		verts := make([]int, len(nodes))
		for i, n := range nodes {
			verts[i] = int(n)
		}
		if got := PartitionCostWS(g, ws, verts, w, nil); got != wantByISP[isp] {
			t.Errorf("isp %s: PartitionCostWS = %d, want %d", isp, got, wantByISP[isp])
		}
	}
}
