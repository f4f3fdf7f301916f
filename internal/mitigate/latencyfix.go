package mitigate

import (
	"context"
	"sort"

	"intertubes/internal/atlas"
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/par"
)

// latencyfix.go implements the constructive half of §5.3: the paper
// does not just measure the gap between deployed fiber paths and the
// best rights-of-way — it proposes "deploying new links along
// previously unused transportation corridors and rights-of-way" to
// close it. LatencyImprovements finds the city pairs with the largest
// deployable gap and the ROW route a new build would follow.

// LatencyImprovement is one proposed ROW-following build.
type LatencyImprovement struct {
	A, B fiber.NodeID
	// BestMs is today's best fiber delay; RowMs what a ROW-following
	// build achieves; SavedMs the one-way gain.
	BestMs, RowMs, SavedMs float64
	// NewFiberKm is the length of the proposed build (the ROW path may
	// reuse corridors that already carry lit conduits; only unlit
	// stretches count as new fiber).
	NewFiberKm float64
	// Route names the corridor route designations along the build
	// ("I-80/UP-Donner", "secondary" for implicit highway edges).
	Route []string
}

// LatencyImprovements ranks the top-k proposed builds by delay saved
// per new fiber kilometre, considering the pairs of an existing
// latency study. Pairs whose best path already matches the ROW bound
// are skipped. Cancellation of the per-pair ROW-graph scan is
// cooperative; a completed call is bit-identical at any worker count.
func LatencyImprovements(ctx context.Context, m *fiber.Map, a *atlas.Atlas, study []PairLatency, k int, opts LatencyOptions) ([]LatencyImprovement, error) {
	opts = opts.withDefaults()
	rg := rowGraph(a, opts)
	nCorridors := len(a.Corridors)

	// Corridors that already carry lit fiber contribute no new fiber
	// cost to a build.
	lit := make(map[int]bool)
	for i := range m.Conduits {
		if len(m.Conduits[i].Tenants) > 0 {
			lit[m.Conduits[i].Corridor] = true
		}
	}

	// A latency study lists pairs grouped by source (A ascending, then
	// B), so the ROW scan batches per source: one full shortest-path
	// tree per distinct A (graph.Tree), then every B of the group
	// traces its path off the tree instead of running its own
	// Dijkstra. A traced path is bit-identical to the per-pair
	// ShortestPath it replaces — parents only change on
	// strictly-shorter relaxations, so early-stop and full-settle runs
	// agree — and groups are independent, keeping the output identical
	// for any worker count.
	type group struct{ lo, hi int } // study[lo:hi) share study[lo].A
	var groups []group
	for lo := 0; lo < len(study); {
		hi := lo + 1
		for hi < len(study) && study[hi].A == study[lo].A {
			hi++
		}
		groups = append(groups, group{lo: lo, hi: hi})
		lo = hi
	}
	computed, err := par.MapWith(ctx, len(groups), opts.Workers, graph.NewWorkspace, func(gi int, ws *graph.Workspace) []*LatencyImprovement {
		gr := groups[gi]
		imps := make([]*LatencyImprovement, gr.hi-gr.lo)
		na := m.Node(study[gr.lo].A)
		var tree *graph.Tree // built on the group's first eligible pair
		for i := gr.lo; i < gr.hi; i++ {
			pl := study[i]
			if pl.BestMs <= pl.RowMs*1.02 {
				continue // already at the ROW bound
			}
			nb := m.Node(pl.B)
			if na.AtlasCity < 0 || na.AtlasCity >= rg.NumVertices() || nb.AtlasCity < 0 {
				continue
			}
			if tree == nil {
				tree = rg.ShortestTree(ws, na.AtlasCity, nil)
			}
			path, ok := tree.Path(nb.AtlasCity)
			if !ok {
				continue
			}
			imp := LatencyImprovement{
				A: pl.A, B: pl.B,
				BestMs:  pl.BestMs,
				RowMs:   geo.FiberLatencyMs(path.Weight),
				SavedMs: pl.BestMs - geo.FiberLatencyMs(path.Weight),
			}
			for _, eid := range path.Edges {
				e := rg.Edge(eid)
				if eid < nCorridors {
					if !lit[eid] {
						imp.NewFiberKm += a.Corridors[eid].LengthKm
						imp.Route = append(imp.Route, a.Corridors[eid].Route)
					}
				} else {
					// Implicit secondary-highway edge: always a new build.
					imp.NewFiberKm += e.Weight
					imp.Route = append(imp.Route, "secondary")
				}
			}
			// Only material proposals: a build must save at least 50 us
			// (~10 km of route) to be worth a trench.
			if imp.SavedMs < 0.05 {
				continue
			}
			imps[i-gr.lo] = &imp
		}
		return imps
	})
	if err != nil {
		return nil, err
	}
	var out []LatencyImprovement
	for _, imps := range computed {
		for _, imp := range imps {
			if imp != nil {
				out = append(out, *imp)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		// Rank by delay saved per new fiber km; an all-reuse build
		// (zero new fiber) is infinitely good and sorts first by
		// SavedMs.
		zi, zj := out[i].NewFiberKm == 0, out[j].NewFiberKm == 0
		if zi != zj {
			return zi
		}
		if zi && zj {
			return out[i].SavedMs > out[j].SavedMs
		}
		ri := out[i].SavedMs / out[i].NewFiberKm
		rj := out[j].SavedMs / out[j].NewFiberKm
		if ri != rj {
			return ri > rj
		}
		if out[i].SavedMs != out[j].SavedMs {
			return out[i].SavedMs > out[j].SavedMs
		}
		// Exact ties fall back to node ids: the ranking must be
		// deterministic at any worker count.
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
