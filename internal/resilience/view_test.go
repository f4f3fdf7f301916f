package resilience

import (
	"math"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/risk"
)

// view_test.go pins the row kernels to their references: ImpactOn
// must reproduce, row for row, the map-walking union-find below
// (cutWeight + connectivity, the CutImpact implementation the row
// kernel replaced) on the raw baseline map and on a perturbed overlay
// view, and PartitionCostWS on a hand-built row must agree with
// PartitionCosts. The sparse min-cut kernel itself is pinned to the
// dense Stoer-Wagner in the graph package's tests.

// cutWeight builds a WeightFunc over m's conduit graph restricted to
// the ISP's published conduits, excluding the cut set.
func cutWeight(m *fiber.Map, isp string, cut map[fiber.ConduitID]bool) graph.WeightFunc {
	return func(eid int) float64 {
		cid := fiber.ConduitID(eid)
		if cut[cid] {
			return math.Inf(1)
		}
		c := m.Conduit(cid)
		if !c.HasTenant(isp) {
			return math.Inf(1)
		}
		return 1
	}
}

// connectivity computes the pair-connectivity statistics of the ISP's
// subgraph under a cut.
func connectivity(m *fiber.Map, g *graph.Graph, isp string, cut map[fiber.ConduitID]bool) (pairsConnected float64, largest float64, nodes int) {
	nodeSet := m.NodesOf(isp)
	nodes = len(nodeSet)
	if nodes < 2 {
		return 1, 1, nodes
	}
	wf := cutWeight(m, isp, cut)
	// Union-find over the ISP's surviving conduits.
	parent := make(map[fiber.NodeID]fiber.NodeID, nodes)
	var find func(fiber.NodeID) fiber.NodeID
	find = func(x fiber.NodeID) fiber.NodeID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, n := range nodeSet {
		parent[n] = n
	}
	for eid := 0; eid < g.NumEdges(); eid++ {
		if math.IsInf(wf(eid), 1) {
			continue
		}
		c := m.Conduit(fiber.ConduitID(eid))
		ra, rb := find(c.A), find(c.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	sizes := make(map[fiber.NodeID]int)
	for _, n := range nodeSet {
		sizes[find(n)]++
	}
	var sumSq, max int
	for _, s := range sizes {
		sumSq += s * s
		if s > max {
			max = s
		}
	}
	// Connected ordered pairs / all ordered pairs (excluding self).
	total := nodes * (nodes - 1)
	connected := sumSq - nodes
	return float64(connected) / float64(total), float64(max) / float64(nodes), nodes
}

// referenceCutImpact is CutImpact over the map-walking union-find,
// indexed by provider.
func referenceCutImpact(m *fiber.Map, mx *risk.Matrix, cuts []fiber.ConduitID) map[string]Impact {
	g := fiber.Graph(m)
	cut := make(map[fiber.ConduitID]bool, len(cuts))
	for _, cid := range cuts {
		cut[cid] = true
	}
	out := make(map[string]Impact, len(mx.ISPs))
	for _, isp := range mx.ISPs {
		im := Impact{ISP: isp}
		for _, cid := range cuts {
			if m.Conduit(cid).HasTenant(isp) {
				im.CutsHit++
			}
		}
		conn, largest, _ := connectivity(m, g, isp, cut)
		im.DisconnectedPairs = 1 - conn
		im.LargestComponent = largest
		out[isp] = im
	}
	return out
}

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
	g := fiber.Graph(m)
	var s ImpactScratch
	cutSets := [][]fiber.ConduitID{
		nil,
		{cids[0]},
		{cids[4]},
		{cids[0], cids[2]},
		{cids[0], cids[1], cids[2], cids[3], cids[4]},
	}
	for _, cuts := range cutSets {
		want := referenceCutImpact(m, mx, cuts)
		rows := impactByISP(CutImpact(m, mx, cuts))
		cut := cutIndicator(m.NumConduits(), cuts)
		for _, isp := range mx.ISPs {
			got := impactOnView(&s, g, m, m.NumConduits(), isp, cuts, cut)
			if got != want[isp] || rows[isp] != want[isp] {
				t.Errorf("cuts %v isp %s: ImpactOn %+v, CutImpact %+v != reference %+v", cuts, isp, got, rows[isp], want[isp])
			}
		}
	}
}

func TestImpactOnMatchesCutImpactAtlas(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	cuts := mx.TopShared(5)
	want := referenceCutImpact(m, mx, cuts)
	rows := impactByISP(CutImpact(m, mx, cuts))
	cut := cutIndicator(m.NumConduits(), cuts)
	g := fiber.Graph(m)
	var s ImpactScratch
	for _, isp := range mx.ISPs {
		got := impactOnView(&s, g, m, m.NumConduits(), isp, cuts, cut)
		if got != want[isp] || rows[isp] != want[isp] {
			t.Errorf("isp %s: ImpactOn %+v, CutImpact %+v != reference %+v", isp, got, rows[isp], want[isp])
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
	want := referenceCutImpact(pmPlus, mx2, pert.Cuts)
	cut := cutIndicator(ov.NumBaseConduits(), pert.Cuts)
	plus := ov.Plus()
	g := fiber.Graph(m)
	var s ImpactScratch
	for _, isp := range mx2.ISPs {
		got := impactOnView(&s, g, plus, ov.NumBaseConduits(), isp, pert.Cuts, cut)
		if got != want[isp] {
			t.Errorf("isp %s: overlay ImpactOn %+v != reference on the mutated clone %+v", isp, got, want[isp])
		}
	}
}

// TestPartitionCostWSMatchesDense pins PartitionCosts, which reads
// ProviderRow, to the kernel on a row built from HasTenant directly.
func TestPartitionCostWSMatchesDense(t *testing.T) {
	res, mx := build(t)
	m := res.Map
	g := fiber.Graph(m)
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
