package scenario

import (
	"slices"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
)

// capacity.go is the traffic half of the IP-over-optical capacity
// layer: a gravity-model demand matrix over the map's city
// populations (the same weighting the traceroute campaign draws its
// endpoint mix from), evaluated against per-conduit capacities
// (fiber/capacity.go) with the Dinic kernel. The baseline — demand
// pairs, capacity table, and per-pair served flows — is memoized once
// per snapshot; each evaluation then reports how many Gbps of
// baseline-served demand the perturbation strands.
//
// Every capacity is a whole number of 40-Gbps wavelengths, so each
// residual and flow total is an exact integer in float64 and the
// kernel's answer — min(max flow, demand), asked for directly through
// its flow limit — does not depend on arc order or on the graph that
// hosts the edges. An evaluation runs on the shared snapshot graph
// with the overlay's capacity table and virtual conduits as extra
// edges, and reuses every memoized baseline flow when the
// perturbation changed no capacity at all; the result equals a
// recomputation of every pair on the materialized map's own graph.

// demandPairs is how many top gravity pairs form the demand matrix.
// Small enough that a capacity stage costs a bounded number of flow
// queries per evaluation, large enough to cover the major corridors.
const demandPairs = 32

// demandFraction scales total offered demand relative to total
// baseline network capacity. Offered demand deliberately exceeds most
// single-pair path capacities so a capacity-reducing cut shows up as
// lost Gbps rather than disappearing into slack.
const demandFraction = 0.5

// LostTraffic quantifies the demand the perturbation strands: the
// gravity demand matrix evaluated before and after, in Gbps. LostGbps
// is ServedBeforeGbps - ServedAfterGbps; an addition-only scenario
// can make it negative (the network serves more than the baseline).
type LostTraffic struct {
	// Demands is the number of gravity pairs evaluated.
	Demands int `json:"demands"`
	// OfferedGbps is the total demand offered across all pairs.
	OfferedGbps float64 `json:"offeredGbps"`
	// ServedBeforeGbps / ServedAfterGbps are the demand actually
	// carried (min of offered and max-flow, summed over pairs).
	ServedBeforeGbps float64 `json:"servedBeforeGbps"`
	ServedAfterGbps  float64 `json:"servedAfterGbps"`
	// LostGbps is the headline delta: baseline-served Gbps the
	// perturbed network no longer carries.
	LostGbps float64 `json:"lostGbps"`
}

// trafficDemand is one gravity pair: endpoints and offered Gbps.
type trafficDemand struct {
	s, t fiber.NodeID
	gbps float64
}

// capacityBaseline is the snapshot's memoized capacity state.
type capacityBaseline struct {
	demands []trafficDemand
	offered float64
	// caps[cid] is the baseline capacity of base conduit cid.
	caps []float64
	// servedTotal is the baseline carried Gbps, summed over demands.
	servedTotal float64
}

// capacityTable fills dst with per-conduit capacities under v's
// effective tenancy, growing it as needed.
func capacityTable(v fiber.View, dst []float64) []float64 {
	nc := v.NumConduits()
	if cap(dst) < nc {
		dst = make([]float64, nc)
	}
	dst = dst[:nc]
	for cid := 0; cid < nc; cid++ {
		dst[cid] = fiber.ConduitCapacityGbps(v, fiber.ConduitID(cid))
	}
	return dst
}

// capacity memoizes the snapshot's capacity baseline: gravity
// demands, the capacity table, and per-pair baseline flows.
func (s *snapshot) capacity() *capacityBaseline {
	return kept(&s.capBase, func() *capacityBaseline {
		m := s.res.Map
		cb := &capacityBaseline{caps: capacityTable(m, nil)}
		cb.demands = buildDemands(m, cb.caps)
		for _, d := range cb.demands {
			cb.offered += d.gbps
		}
		cb.servedTotal = cb.servedOn(s.baseline().g, graph.NewWorkspace(), cb.caps, nil)
		return cb
	})
}

// buildDemands selects the top gravity pairs by population product
// (ties broken by node ids, so the matrix is deterministic) and
// scales them so total offered demand is demandFraction of total
// baseline capacity.
func buildDemands(m *fiber.Map, caps []float64) []trafficDemand {
	type cand struct {
		s, t fiber.NodeID
		w    float64
	}
	var cands []cand
	for i := range m.Nodes {
		pi := float64(m.Nodes[i].Population)
		if pi <= 0 {
			continue
		}
		for j := i + 1; j < len(m.Nodes); j++ {
			pj := float64(m.Nodes[j].Population)
			if pj <= 0 {
				continue
			}
			cands = append(cands, cand{s: fiber.NodeID(i), t: fiber.NodeID(j), w: pi * pj})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].s != cands[j].s {
			return cands[i].s < cands[j].s
		}
		return cands[i].t < cands[j].t
	})
	if len(cands) > demandPairs {
		cands = cands[:demandPairs]
	}

	var totalCap, totalW float64
	for _, c := range caps {
		totalCap += c
	}
	for _, c := range cands {
		totalW += c.w
	}
	out := make([]trafficDemand, 0, len(cands))
	for _, c := range cands {
		gbps := 0.0
		if totalW > 0 {
			gbps = demandFraction * totalCap * (c.w / totalW)
		}
		out = append(out, trafficDemand{s: c.s, t: c.t, gbps: gbps})
	}
	return out
}

// servedOn evaluates the demand matrix on a perturbed topology and
// returns the carried Gbps, summed over demands: g must use the view's
// base conduit ids as edge ids, caps[eid] their perturbed capacities,
// and extra any overlay-only conduits carrying capacity as Weight.
func (cb *capacityBaseline) servedOn(g *graph.Graph, ws *graph.Workspace, caps []float64, extra []graph.Edge) float64 {
	served := 0.0
	for _, d := range cb.demands {
		served += g.MaxFlow(ws, int(d.s), int(d.t), caps, extra, d.gbps)
	}
	return served
}

// lostTraffic is the delta from the baseline to a network carrying
// served Gbps.
func (cb *capacityBaseline) lostTraffic(served float64) *LostTraffic {
	return &LostTraffic{
		Demands:          len(cb.demands),
		OfferedGbps:      cb.offered,
		ServedBeforeGbps: cb.servedTotal,
		ServedAfterGbps:  served,
		LostGbps:         cb.servedTotal - served,
	}
}

// unchanged reports whether a perturbed capacity table (base
// conduits in caps, overlay-only conduits in extra) leaves the
// baseline flow network exactly as it was: every base capacity equal
// and no overlay conduit carrying capacity. Then every demand takes
// its baseline flow.
func (cb *capacityBaseline) unchanged(caps []float64, extra []graph.Edge) bool {
	for _, e := range extra {
		if e.Weight > 0 {
			return false
		}
	}
	return slices.Equal(caps, cb.caps)
}
