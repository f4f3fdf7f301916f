package scenario

import (
	"context"

	"intertubes/internal/fiber"
	"intertubes/internal/latency"
)

// atlas.go wires the all-pairs latency atlas (internal/latency) into
// the engine: the baseline atlas is memoized on the snapshot, where
// the baseline §5.3 study reads its lit rows, and a scenario's atlas —
// the latency stage's input — is built over the copy-on-write overlay
// view, reusing every baseline matrix row whose source the
// perturbation provably cannot affect.
//
// The reuse rule works on connected components of the lit-conduit
// graph: a source's reachable region is exactly its lit component, so
// its row can only change if the perturbation touches that component
// — a cut or provider removal darkening one of its conduits, or an
// addition landing an endpoint in it (which also merges in whatever
// the other endpoint's component could reach). Marking whole
// components is conservative — a far-side cut recomputes more rows
// than strictly necessary — but never unsound, and the differential
// suite pins byte-identical results against a from-scratch rebuild.

// litComponents returns the union-find component id of every node
// over conduits with lit fiber (>= 1 tenant), memoized per snapshot.
func (s *snapshot) litComponents() []int32 {
	return kept(&s.lit, func() []int32 {
		m := s.res.Map
		parent := make([]int32, m.NumNodes())
		for i := range parent {
			parent[i] = int32(i)
		}
		var find func(int32) int32
		find = func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for cid := 0; cid < m.NumConduits(); cid++ {
			if len(m.Tenants(fiber.ConduitID(cid))) == 0 {
				continue
			}
			a, b := m.ConduitEnds(fiber.ConduitID(cid))
			ra, rb := find(int32(a)), find(int32(b))
			if ra != rb {
				parent[ra] = rb
			}
		}
		comp := make([]int32, len(parent))
		for i := range parent {
			comp[i] = find(int32(i))
		}
		return comp
	})
}

// LatencyAtlas returns the baseline's all-pairs latency atlas,
// building it on first use. The atlas is immutable and shared. A
// canceled build is not kept.
func (e *Engine) LatencyAtlas(ctx context.Context) (*latency.Atlas, error) {
	return e.snap.atlas.Get(ctx, func(ctx context.Context) (*latency.Atlas, error) {
		return latency.Build(ctx, e.snap.res.Map, latency.Options{Workers: e.opts.Workers})
	})
}

// LatencyAtlasFor evaluates a scenario's perturbation as a latency
// atlas over the overlay view, recomputing only rows whose source's
// lit component the perturbation touches and reusing every other
// baseline row verbatim (Atlas.ReusedRows reports how many). The
// result is byte-identical to a from-scratch build on the
// materialized perturbed map.
func (e *Engine) LatencyAtlasFor(ctx context.Context, sc Scenario) (*latency.Atlas, error) {
	ov, pert, err := e.buildOverlay(sc, e.keptISPs(sc))
	if err != nil {
		return nil, err
	}
	return e.overlayAtlas(ctx, ov, pert)
}

// overlayAtlas builds the latency atlas over ov's final view, where
// pert is the perturbation ov records, reusing the baseline rows whose
// lit component pert leaves untouched.
func (e *Engine) overlayAtlas(ctx context.Context, ov *fiber.Overlay, pert fiber.Perturbation) (*latency.Atlas, error) {
	base, err := e.LatencyAtlas(ctx)
	if err != nil {
		return nil, err
	}
	m := e.snap.res.Map
	comp := e.snap.litComponents()
	touched := make(map[int32]bool)
	mark := func(n fiber.NodeID) { touched[comp[n]] = true }
	for _, cid := range pert.Cuts {
		a, b := m.ConduitEnds(cid)
		mark(a)
		mark(b)
	}
	for _, isp := range pert.RemoveISPs {
		for _, cid := range m.ConduitsOf(isp) {
			a, b := m.ConduitEnds(cid)
			mark(a)
			mark(b)
		}
	}
	for _, ad := range pert.Additions {
		mark(ad.A)
		mark(ad.B)
	}
	reuse := func(src fiber.NodeID) bool { return !touched[comp[src]] }
	return latency.BuildView(ctx, m, ov.Final(), base, reuse, latency.Options{Workers: e.opts.Workers})
}
