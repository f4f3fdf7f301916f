// Package mitigate implements §5 of the paper: improving the existing
// long-haul infrastructure. Three analyses:
//
//   - RobustnessSuggestion (§5.1): re-route around the most heavily
//     shared conduits using only existing conduits, quantifying path
//     inflation (PI) and shared-risk reduction (SRR), and deriving
//     peering suggestions (Table 5, Figure 10).
//   - AddConduits (§5.2): greedily add up to k new city-to-city
//     conduits that maximize global shared-risk reduction per fiber
//     mile (Figure 11).
//   - LatencyStudy (§5.3): per city pair, compare the best and average
//     existing-path delays with the best right-of-way path and the
//     line-of-sight lower bound (Figure 12).
package mitigate

import (
	"math"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/risk"
)

// Stat summarizes a metric's distribution across targets.
type Stat struct {
	Min, Max, Avg float64
	N             int
}

func newStat() Stat { return Stat{Min: math.Inf(1), Max: math.Inf(-1)} }

func (s *Stat) add(v float64) {
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Avg += v
	s.N++
}

func (s *Stat) finish() {
	if s.N > 0 {
		s.Avg /= float64(s.N)
	} else {
		s.Min, s.Max = 0, 0
	}
}

// ISPRobustness is one ISP's row of Figure 10 plus its Table 5
// peering suggestions.
type ISPRobustness struct {
	ISP string
	// Evaluated counts the target conduits this ISP occupies (and so
	// had to re-route).
	Evaluated int
	// PI is path inflation: extra hops of the optimized path versus
	// the single original conduit.
	PI Stat
	// SRR is shared-risk reduction: tenants on the original conduit
	// minus the worst-case tenants along the optimized path.
	SRR Stat
	// SuggestedPeers are the top owners of optimized-path conduits the
	// ISP does not occupy (Table 5).
	SuggestedPeers []string
}

// hopPenalty regularizes the shared-risk objective: the paper's
// eq. 1 minimizes summed sharing over coarse conduits, which at our
// finer conduit granularity would happily take ten short low-share
// hops to save one unit of risk. Charging a constant per hop keeps
// optimized paths operationally sensible (every hop is a real
// wavelength/regeneration cost) and restores the paper's "one-to-two
// extra conduits" result.
const hopPenalty = 2.0

// RobustnessSuggestion runs the §5.1 framework: for every ISP and
// every target conduit in its footprint, find the path between the
// conduit's endpoints over all other lit conduits that minimizes
// total shared risk (eq. 1, hop-regularized), and report PI, SRR,
// and peering suggestions. topPeers bounds the suggestion list (the
// paper shows 3).
func RobustnessSuggestion(m *fiber.Map, mx *risk.Matrix, targets []fiber.ConduitID, topPeers int) []ISPRobustness {
	g := fiber.Graph(m)
	// One workspace serves every shortest-path query of the scan.
	ws := graph.NewWorkspace()
	var out []ISPRobustness
	for _, isp := range mx.ISPs {
		r := ISPRobustness{ISP: isp, PI: newStat(), SRR: newStat()}
		peerScore := make(map[string]int)
		for _, target := range targets {
			c := m.Conduit(target)
			if !c.HasTenant(isp) {
				continue
			}
			r.Evaluated++
			// Minimum shared-risk path avoiding the target conduit,
			// over all lit conduits (the framework may use conduits
			// outside the ISP's own footprint — that is where peering
			// suggestions come from).
			srWeight := func(eid int) float64 {
				if fiber.ConduitID(eid) == target {
					return math.Inf(1)
				}
				s := mx.Sharing(fiber.ConduitID(eid))
				if s == 0 {
					return math.Inf(1) // unlit conduit
				}
				return float64(s) + hopPenalty
			}
			path, ok := g.ShortestPath(ws, int(c.A), int(c.B), srWeight)
			if !ok {
				continue
			}
			maxSharing := 0
			for _, eid := range path.Edges {
				s := mx.Sharing(fiber.ConduitID(eid))
				if s > maxSharing {
					maxSharing = s
				}
				// Peering: owners of conduits the ISP does not occupy.
				pc := m.Conduit(fiber.ConduitID(eid))
				if !pc.HasTenant(isp) {
					for _, owner := range pc.Tenants {
						if owner != isp {
							peerScore[owner]++
						}
					}
				}
			}
			r.PI.add(float64(path.Hops() - 1))
			srr := mx.Sharing(target) - maxSharing
			if srr < 0 {
				srr = 0
			}
			r.SRR.add(float64(srr))
		}
		r.PI.finish()
		r.SRR.finish()
		r.SuggestedPeers = topKeys(peerScore, topPeers)
		out = append(out, r)
	}
	return out
}

// topKeys returns the n keys with the highest counts, ties broken
// alphabetically for determinism.
func topKeys(score map[string]int, n int) []string {
	keys := make([]string, 0, len(score))
	for k := range score {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if score[keys[i]] != score[keys[j]] {
			return score[keys[i]] > score[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// pathSharedRisk sums the sharing degrees along a path (eq. 1's SR).
func pathSharedRisk(mx *risk.Matrix, path graph.Path) float64 {
	var sr float64
	for _, eid := range path.Edges {
		sr += float64(mx.Sharing(fiber.ConduitID(eid)))
	}
	return sr
}
