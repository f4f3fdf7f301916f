package mitigate

import (
	"context"
	"math"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/par"
	"intertubes/internal/risk"
)

// addlinks.go implements §5.2: choose up to k new city-to-city
// conduits (eq. 2) that maximize global shared-risk reduction while
// penalizing deployment cost (fiber miles). The evaluation follows
// the paper's framing: after an addition, each ISP may re-route its
// most heavily shared conduits over paths that use the new (initially
// empty) conduit; the improvement ratio compares its average shared
// risk before and after.

// AddOptions tunes the optimizer.
type AddOptions struct {
	// K is the number of conduits to add (default 10, as in
	// Figure 11's sweep).
	K int
	// MinKm/MaxKm bound candidate great-circle lengths
	// (default 100-900 km; shorter adds nothing, longer is not a
	// single long-haul conduit).
	MinKm, MaxKm float64
	// Alpha is the deployment-cost penalty per 1000 km of new fiber in
	// benefit units (default 1.0).
	Alpha float64
	// TargetsPerISP is how many of each ISP's most-shared conduits are
	// considered for re-routing (default 4).
	TargetsPerISP int
	// MaxCandidates caps the candidate set, keeping the shortest
	// (default 4000).
	MaxCandidates int
	// Exact switches candidate scoring from the fast summed-SR
	// distance-field approximation to exact bottleneck (minimax)
	// shortest paths: a candidate's gain for a target is precisely the
	// reduction in best achievable worst-case sharing. Slower; exists
	// for the greedy-vs-exact ablation in DESIGN.md.
	Exact bool
	// CapacityObjective, when non-nil, adds a capacity-aware term (in
	// benefit units) to every candidate's score before the cost
	// penalty — e.g. fiber.CapacityGbps scaled to reward conduits that
	// would carry more wavelengths. It must be a pure function of its
	// arguments: it is evaluated once per candidate at enumeration
	// time, so the greedy sweep stays deterministic at any worker
	// count. Nil preserves the pure shared-risk objective.
	CapacityObjective func(a, b fiber.NodeID, lengthKm float64) float64
	// Workers bounds the worker pool for the per-target distance
	// fields and the candidate-scoring scan (<= 0 means all CPUs).
	// The chosen additions are identical for any value.
	Workers int
}

func (o AddOptions) withDefaults() AddOptions {
	if o.K == 0 {
		o.K = 10
	}
	if o.MinKm == 0 {
		o.MinKm = 100
	}
	if o.MaxKm == 0 {
		o.MaxKm = 900
	}
	if o.Alpha == 0 {
		o.Alpha = 1.0
	}
	if o.TargetsPerISP == 0 {
		o.TargetsPerISP = 4
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 4000
	}
	return o
}

// Addition is one new conduit chosen by the optimizer.
type Addition struct {
	A, B     fiber.NodeID
	LengthKm float64
	// Benefit is the objective value at selection time (total SRR
	// minus the cost penalty).
	Benefit float64
}

// AddResult is the outcome of the §5.2 sweep.
type AddResult struct {
	Additions []Addition
	// Improvement[isp][k-1] is the ISP's relative shared-risk
	// reduction (1 - after/before) once the first k additions are in
	// place — the y-axis of Figure 11.
	Improvement map[string][]float64
}

// ispTargets identifies an ISP's most-shared conduits.
func ispTargets(m *fiber.Map, mx *risk.Matrix, isp string, n int) []fiber.ConduitID {
	cids := m.ConduitsOf(isp)
	sort.Slice(cids, func(i, j int) bool {
		si, sj := mx.Sharing(cids[i]), mx.Sharing(cids[j])
		if si != sj {
			return si > sj
		}
		return cids[i] < cids[j]
	})
	if len(cids) > n {
		cids = cids[:n]
	}
	return cids
}

// AddConduits runs the greedy sweep. The returned improvements are
// computed against the original matrix, so Improvement[isp] is a
// non-decreasing series in k. Cancellation is cooperative: ctx is
// checked between greedy steps and at every chunk grant of the
// distance-field and candidate-scoring scans, so a canceled sweep
// stops within one scan and returns (nil, ctx.Err()). A completed
// sweep chooses identical additions at any worker count.
func AddConduits(ctx context.Context, m *fiber.Map, mx *risk.Matrix, opts AddOptions) (*AddResult, error) {
	opts = opts.withDefaults()
	g := m.Graph() // mutated as conduits are added

	// Candidate set: city pairs with no direct conduit, within the
	// length window, shortest first.
	type candidate struct {
		a, b  fiber.NodeID
		km    float64
		bonus float64 // CapacityObjective term, fixed at enumeration
	}
	var cands []candidate
	for i := range m.Nodes {
		for j := i + 1; j < len(m.Nodes); j++ {
			a, b := fiber.NodeID(i), fiber.NodeID(j)
			if len(m.ConduitsBetween(a, b)) > 0 {
				continue
			}
			km := m.Nodes[i].Loc.DistanceKm(m.Nodes[j].Loc)
			if km < opts.MinKm || km > opts.MaxKm {
				continue
			}
			c := candidate{a: a, b: b, km: km}
			if opts.CapacityObjective != nil {
				c.bonus = opts.CapacityObjective(a, b, km)
			}
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].km != cands[j].km {
			return cands[i].km < cands[j].km
		}
		if cands[i].a != cands[j].a {
			return cands[i].a < cands[j].a
		}
		return cands[i].b < cands[j].b
	})
	if len(cands) > opts.MaxCandidates {
		cands = cands[:opts.MaxCandidates]
	}

	// Per-ISP baseline risk and re-route targets.
	type ispState struct {
		name    string
		targets []fiber.ConduitID
		before  float64 // average sharing over the ISP's conduits
	}
	var states []ispState
	for _, isp := range mx.ISPs {
		cids := m.ConduitsOf(isp)
		if len(cids) == 0 {
			continue
		}
		var sum float64
		for _, cid := range cids {
			sum += float64(mx.Sharing(cid))
		}
		states = append(states, ispState{
			name:    isp,
			targets: ispTargets(m, mx, isp, opts.TargetsPerISP),
			before:  sum / float64(len(cids)),
		})
	}

	// sharing returns the effective sharing degree of a graph edge:
	// matrix sharing for original conduits, adopter count for new
	// ones.
	newEdgeSharing := make(map[int]int) // new graph edge id -> adopters
	sharing := func(eid int) float64 {
		if n, ok := newEdgeSharing[eid]; ok {
			return float64(1 + n) // the re-routing ISP plus adopters
		}
		s := mx.Sharing(fiber.ConduitID(eid))
		if s == 0 {
			return math.Inf(1)
		}
		return float64(s)
	}

	// bestReroute returns, for a target conduit, the minimum worst-
	// case sharing reachable between its endpoints avoiding the
	// conduit itself (the quantity an addition can improve). ws is the
	// calling goroutine's scratch workspace.
	bestReroute := func(ws *graph.Workspace, target fiber.ConduitID) (maxSharing float64, path graph.Path, ok bool) {
		c := m.Conduit(target)
		wf := func(eid int) float64 {
			if fiber.ConduitID(eid) == target {
				return math.Inf(1)
			}
			return sharing(eid)
		}
		path, ok = g.ShortestPath(ws, int(c.A), int(c.B), wf)
		if !ok {
			return 0, path, false
		}
		for _, eid := range path.Edges {
			if s := sharing(eid); s > maxSharing {
				maxSharing = s
			}
		}
		return maxSharing, path, true
	}

	res := &AddResult{Improvement: make(map[string][]float64)}

	// Workspace for the serial phases (the parallel scans get one per
	// worker from the pool helper).
	serialWS := graph.NewWorkspace()

	// afterRisk recomputes an ISP's average sharing assuming its
	// targets are re-routed wherever that lowers worst-case sharing.
	afterRisk := func(st ispState) float64 {
		cids := m.ConduitsOf(st.name)
		var sum float64
		for _, cid := range cids {
			orig := float64(mx.Sharing(cid))
			replaced := orig
			for _, tgt := range st.targets {
				if tgt != cid {
					continue
				}
				if alt, _, ok := bestReroute(serialWS, cid); ok && alt < orig {
					replaced = alt
				}
			}
			sum += replaced
		}
		return sum / float64(len(cids))
	}

	for step := 0; step < opts.K; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Per-target fields used to score every candidate in O(1):
		// summed-SR distances (fast approximation) or minimax
		// worst-sharing distances (exact), weighted by how many ISPs
		// would re-route over that target. The unique-target list is
		// collected serially (insertion order is deterministic), then
		// the distance fields — one or two Dijkstra sweeps each — fan
		// out over the worker pool; the graph and the sharing closure
		// are read-only until the addition below.
		type field struct {
			distA, distB []float64
			current      float64 // current best re-route worst-sharing
			orig         float64
			weight       float64 // ISPs with this target
		}
		fields := make(map[fiber.ConduitID]*field)
		var fieldOrder []fiber.ConduitID
		for _, st := range states {
			for _, tgt := range st.targets {
				if f, done := fields[tgt]; done {
					f.weight++
					continue
				}
				fields[tgt] = &field{orig: float64(mx.Sharing(tgt)), weight: 1}
				fieldOrder = append(fieldOrder, tgt)
			}
		}
		err := par.RunWith(ctx, len(fieldOrder), opts.Workers, graph.NewWorkspace, func(i int, ws *graph.Workspace) {
			tgt := fieldOrder[i]
			f := fields[tgt]
			c := m.Conduit(tgt)
			wf := func(eid int) float64 {
				if fiber.ConduitID(eid) == tgt {
					return math.Inf(1)
				}
				return sharing(eid)
			}
			// The distance fields outlive the scan (the candidate
			// scoring reads them), so they are fresh allocations — the
			// workspace only absorbs the heap/stamp/weight-table churn.
			if opts.Exact {
				f.distA = g.MinimaxDistances(ws, int(c.A), wf, nil)
				f.distB = g.MinimaxDistances(ws, int(c.B), wf, nil)
				f.current = f.distA[int(c.B)]
			} else {
				cur, _, ok := bestReroute(ws, tgt)
				if !ok {
					cur = math.Inf(1)
				}
				f.distA = g.ShortestDistances(ws, int(c.A), wf, nil)
				f.distB = g.ShortestDistances(ws, int(c.B), wf, nil)
				f.current = cur
			}
		})
		if err != nil {
			return nil, err
		}
		// Score candidates: a candidate (u,v) helps target t if
		// routing endpointA ->u -> new conduit -> v-> endpointB (or the
		// reverse) beats both the original conduit and the current
		// best re-route. We approximate the path's worst-case sharing
		// by its average SR per hop, which the exact recomputation
		// after selection corrects. Each candidate's score is
		// independent, and the per-candidate float accumulation always
		// walks fieldOrder — never map order — so the scan is both
		// parallelizable and run-to-run deterministic.
		scores, err := par.Map(ctx, len(cands), opts.Workers, func(ci int) float64 {
			cand := cands[ci]
			var gain float64
			for _, tgt := range fieldOrder {
				f := fields[tgt]
				if opts.Exact {
					// Exact: the candidate's worst-case sharing when
					// used on a re-route is the bottleneck of the two
					// connecting paths and the fresh conduit itself.
					candWorst := math.Min(
						math.Max(math.Max(f.distA[int(cand.a)], f.distB[int(cand.b)]), 1),
						math.Max(math.Max(f.distA[int(cand.b)], f.distB[int(cand.a)]), 1))
					today := math.Min(f.orig, f.current)
					if candWorst < today {
						gain += f.weight * (today - candWorst)
					}
					continue
				}
				// The candidate is useful only if it can sit on a
				// re-route: both of the target's endpoints must be
				// SR-reachable from the candidate's endpoints.
				reachable := !math.IsInf(f.distA[int(cand.a)]+f.distB[int(cand.b)], 1) ||
					!math.IsInf(f.distA[int(cand.b)]+f.distB[int(cand.a)], 1)
				if !reachable {
					continue
				}
				// Gain proxy: a brand-new conduit carries one tenant,
				// so the most it can shave from this target's worst-
				// case sharing is the gap down to 1, relative to the
				// best option available today.
				today := math.Min(f.orig, f.current)
				if shave := today - 1; shave > 0 {
					// Discount by how far out of the way the candidate
					// is (accumulated SR of the connecting paths).
					detour := math.Min(f.distA[int(cand.a)]+f.distB[int(cand.b)],
						f.distA[int(cand.b)]+f.distB[int(cand.a)])
					gain += f.weight * shave / (1 + detour/10)
				}
			}
			return gain + cand.bonus - opts.Alpha*cand.km/1000
		})
		if err != nil {
			return nil, err
		}
		// Ordered reduce: the first strict improvement wins, exactly
		// as the serial scan behaved.
		bestIdx, bestScore := -1, 0.0
		for ci, score := range scores {
			if score > bestScore {
				bestIdx, bestScore = ci, score
			}
		}
		if bestIdx < 0 {
			break // no candidate has positive benefit
		}
		chosen := cands[bestIdx]
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)
		eid := g.AddEdge(int(chosen.a), int(chosen.b), chosen.km)
		newEdgeSharing[eid] = 0
		res.Additions = append(res.Additions, Addition{
			A: chosen.a, B: chosen.b, LengthKm: chosen.km, Benefit: bestScore,
		})

		// Record per-ISP improvement at this k.
		for _, st := range states {
			after := afterRisk(st)
			impr := 0.0
			if st.before > 0 {
				impr = 1 - after/st.before
			}
			if impr < 0 {
				impr = 0
			}
			prev := res.Improvement[st.name]
			// The series is cumulative; never report a regression
			// caused by approximation noise.
			if n := len(prev); n > 0 && impr < prev[n-1] {
				impr = prev[n-1]
			}
			res.Improvement[st.name] = append(prev, impr)
		}
	}
	return res, nil
}
