package scenario

import (
	"math"
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
// edges. A demand keeps its memoized baseline answer when the
// perturbation provably cannot change it (reusable) and re-flows
// otherwise; the result equals a recomputation of every pair on the
// materialized map's own graph.

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
	// served[i] is demand i's baseline carried Gbps.
	served []float64
	// flow is a len(demands) × len(caps) slab: flow[i*len(caps)+cid]
	// is |flow| on conduit cid in demand i's baseline max flow, a flow
	// of at least served[i].
	flow []float64
	// side[i] is the source side of a minimum cut of demand i's
	// baseline network, indexed by node, when the demand is served
	// below its Gbps; nil when it is served in full.
	side [][]bool
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
// demands, the capacity table, and per-pair baseline flows — each
// pair's served Gbps, its flow per conduit and, when the pair is
// served below its demand, its min cut, read off the kernel in the
// same pass that sums them.
func (s *snapshot) capacity() *capacityBaseline {
	return kept(&s.capBase, func() *capacityBaseline {
		m := s.res.Map
		g := s.baseline().g
		cb := &capacityBaseline{caps: capacityTable(m, nil)}
		cb.demands = buildDemands(m, cb.caps)
		nc := len(cb.caps)
		cb.served = make([]float64, len(cb.demands))
		cb.flow = make([]float64, len(cb.demands)*nc)
		cb.side = make([][]bool, len(cb.demands))
		ws := graph.NewWorkspace()
		for i, d := range cb.demands {
			cb.offered += d.gbps
			f := g.MaxFlow(ws, int(d.s), int(d.t), cb.caps, nil, d.gbps)
			cb.served[i] = f
			cb.servedTotal += f
			row := cb.flow[i*nc : (i+1)*nc]
			ws.FlowOn(row)
			for cid, x := range row {
				row[cid] = math.Abs(x)
			}
			if f < d.gbps {
				cb.side[i] = make([]bool, g.NumVertices())
				ws.MinCutSide(cb.side[i])
			}
		}
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

// capacityDelta is how a perturbed capacity network differs from the
// baseline's: the base conduits whose capacity fell, and the edges
// whose capacity rose — base conduits widened by merged additions,
// then overlay-new conduits with usable capacity.
type capacityDelta struct {
	dropped []int
	grown   []graph.Edge
}

// reusable reports whether demand i's answer under caps equals its
// baseline served Gbps, from two sufficient conditions:
//
//   - (A) every dropped conduit still carries the demand's baseline
//     flow. That flow is then feasible, so the new max flow is no
//     smaller;
//   - (B) the demand was served in full, or no grown edge crosses its
//     baseline min cut. The cut's capacity then did not rise, so the
//     new max flow is no larger.
//
// With integral capacities the kernel would return the same float64.
func (cb *capacityBaseline) reusable(i int, caps []float64, d *capacityDelta) bool {
	flow := cb.flow[i*len(cb.caps):]
	for _, cid := range d.dropped {
		if caps[cid] < flow[cid] {
			return false
		}
	}
	if side := cb.side[i]; side != nil {
		for _, e := range d.grown {
			if side[e.U] != side[e.V] {
				return false
			}
		}
	}
	return true
}

// servedOn evaluates the demand matrix on the perturbed network — g
// with the view's base conduit ids as edge ids, caps[eid] their
// perturbed capacities, extra any overlay-only conduits carrying
// capacity as Weight, d their difference from the baseline — and
// returns the carried Gbps, summed over demands in order, and how many
// demands re-flowed; every other one keeps its baseline answer.
func (cb *capacityBaseline) servedOn(g *graph.Graph, ws *graph.Workspace, caps []float64, extra []graph.Edge, d *capacityDelta) (served float64, flows int) {
	for i, dm := range cb.demands {
		if cb.reusable(i, caps, d) {
			served += cb.served[i]
			continue
		}
		flows++
		served += g.MaxFlow(ws, int(dm.s), int(dm.t), caps, extra, dm.gbps)
	}
	return served, flows
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
