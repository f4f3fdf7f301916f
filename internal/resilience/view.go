package resilience

import (
	"math"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
)

// view.go holds the row kernels behind every per-provider metric in
// the package: CutImpact and PartitionCosts run them on rows built
// from a map (ProviderRow), and the scenario engine runs them on rows
// masked under a copy-on-write overlay. A row is one provider's dense
// per-edge table over the shared conduit graph, so neither kernel
// searches tenant strings, and both reuse caller-owned scratch. The
// component statistics are integers before the final divisions, and
// the unique min-cut value is integral, so results do not depend on
// which view the row was built from.

// ImpactScratch carries the union-find state ImpactOn reuses across
// calls. The zero value is ready; not safe for concurrent use.
type ImpactScratch struct {
	parent []int32
	count  []int32
}

// ImpactOn computes one provider's Impact under a cut set from its
// dense row. g is the conduit graph (edge id = base conduit id); row
// is the provider's per-edge table on the view the analysis runs on —
// removals and additions applied, cut conduits still lit — with 1 on
// its conduits and +Inf elsewhere, the row shape PartitionCostWS
// takes; extra lists its overlay-only conduits. verts is its footprint
// on that view (the endpoints of row and extra, ascending); cuts is
// the resolved cut list and cut its indicator indexed by base conduit
// id (extras are never cut).
func (s *ImpactScratch) ImpactOn(g *graph.Graph, isp string, verts []int, row []float64, extra []graph.Edge, cuts []fiber.ConduitID, cut []bool) Impact {
	im := Impact{ISP: isp}
	for _, cid := range cuts {
		if row[cid] == 1 {
			im.CutsHit++
		}
	}
	n := len(verts)
	if n < 2 {
		im.DisconnectedPairs = 0
		im.LargestComponent = 1
		return im
	}

	if nn := g.NumVertices(); len(s.parent) < nn {
		s.parent = make([]int32, nn)
		s.count = make([]int32, nn)
	}
	parent := s.parent
	for _, v := range verts {
		parent[v] = int32(v)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	for eid, ne := 0, g.NumEdges(); eid < ne; eid++ {
		if row[eid] == 1 && !cut[eid] {
			e := g.Edge(eid)
			union(e.U, e.V)
		}
	}
	for _, e := range extra {
		union(e.U, e.V)
	}
	var sumSq, max int
	for _, v := range verts {
		s.count[find(int32(v))]++
	}
	for _, v := range verts {
		r := find(int32(v))
		if c := int(s.count[r]); c > 0 {
			sumSq += c * c
			if c > max {
				max = c
			}
			s.count[r] = 0
		}
	}
	total := n * (n - 1)
	connected := sumSq - n
	im.DisconnectedPairs = 1 - float64(connected)/float64(total)
	im.LargestComponent = float64(max) / float64(n)
	return im
}

// PartitionCostWS computes one provider's minimum conduit cuts to
// partition — the PartitionCosts per-ISP value — through the
// Stoer-Wagner kernel with scratch in ws. verts is the provider's
// footprint, weights the materialized per-edge table (1 on the
// provider's conduits, +Inf elsewhere), extra any overlay-added edges.
// Returns 0 when the footprint is trivial or already disconnected.
func PartitionCostWS(g *graph.Graph, ws *graph.Workspace, verts []int, weights []float64, extra []graph.Edge) int {
	if cut, ok := g.GlobalMinCut(ws, verts, weights, extra); ok {
		return int(math.Round(cut))
	}
	return 0
}
