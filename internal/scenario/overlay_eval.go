package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/obs"
	"intertubes/internal/resilience"
)

// overlay_eval.go is the evaluator. Instead of deep-cloning the map
// per scenario, it records the perturbation as a fiber.Overlay over
// the shared snapshot and recomputes only what the delta touches:
//
//   - sharing and ranking update the baseline risk matrix's integer
//     tables at the conduits the overlay touched, and stats read
//     through the final view (no map copy);
//   - disconnection and partition cost are recomputed only for the
//     providers the delta can affect — a provider is "touched" when a
//     cut conduit carries its (surviving) tenancy or an addition
//     lights it; every other provider reuses its baseline row, which
//     is exactly what a full recomputation would produce for it;
//   - touched providers read their dense rows: the snapshot's
//     per-provider unit weight table, masked in place in a pooled
//     scratch buffer (additions lower masks to 1, cuts raise them to
//     +Inf, overlay-new conduits ride as extra edges), from which the
//     footprint, the disconnection union-find and the sparse
//     Stoer-Wagner partition cost are all read;
//   - the opt-in stages read the final view too: the latency study
//     runs over the overlay's latency atlas (reusing the baseline rows
//     the delta cannot reach), and the traffic campaign attributes
//     onto the view.
//
// The output contract is strict: bit-identical Results to the
// clone-per-scenario reference in clone_ref_test.go, enforced by the
// differential suite in overlay_equiv_test.go and FuzzOverlayEvaluate.

// touchedCut/touchedAdd classify why a provider needs recomputation.
const (
	touchedCut = 1 << iota
	touchedAdd
)

// evalScratch is the reusable per-evaluation workspace: the graph
// kernel scratch, the union-find scratch, and the masked weight /
// vertex / extra-edge / vertex-mark buffers. Pooled so concurrent
// sweeps reuse a few of them instead of reallocating per scenario.
type evalScratch struct {
	ws    *graph.Workspace
	imp   resilience.ImpactScratch
	w     []float64
	verts []int
	extra []graph.Edge
	mark  []bool
	// capW is the capacity stage's per-conduit capacity table
	// (base conduits first, overlay virtuals after), and capD its
	// difference from the baseline's.
	capW []float64
	capD capacityDelta
}

var scratchPool = sync.Pool{
	New: func() any { return &evalScratch{ws: graph.NewWorkspace()} },
}

func getScratch(nEdges int) *evalScratch {
	s := scratchPool.Get().(*evalScratch)
	if len(s.w) < nEdges {
		s.w = make([]float64, nEdges)
	}
	return s
}

func putScratch(s *evalScratch) { scratchPool.Put(s) }

// providerRow fills the scratch with one provider's dense row under
// the perturbation: w is its baseline unit-weight row with the tenancy
// it gained on merged additions and, unless cuts is nil, the cut
// conduits masked out (maskWeights); extra holds its overlay-new
// conduits; verts its footprint — the endpoints of both, in ascending
// node id. That footprint is exactly NodesOf on the matching overlay
// view (Plus without cuts, Final with them), found without a search
// over tenant strings, a map or a sort.
func (s *evalScratch) providerRow(base *baseline, ov *fiber.Overlay, final fiber.View, adds []fiber.OverlayAddition, isp string, cuts []fiber.ConduitID) {
	g := base.g
	nb := ov.NumBaseConduits()
	w := s.w[:g.NumEdges()]
	maskWeights(w, base.ispW[base.ispIdx[isp]], gainsFor(adds, ov.AdditionTargets(), nb, isp), cuts)
	s.extra = s.extra[:0]
	for cid := fiber.ConduitID(nb); int(cid) < final.NumConduits(); cid++ {
		if final.HasTenant(cid, isp) {
			a, b := final.ConduitEnds(cid)
			s.extra = append(s.extra, graph.Edge{U: int(a), V: int(b), Weight: 1})
		}
	}

	n := g.NumVertices()
	if len(s.mark) < n {
		s.mark = make([]bool, n)
	}
	mark := s.mark[:n]
	for eid, x := range w {
		if x == 1 {
			e := g.Edge(eid)
			mark[e.U], mark[e.V] = true, true
		}
	}
	for _, e := range s.extra {
		mark[e.U], mark[e.V] = true, true
	}
	s.verts = s.verts[:0]
	for v, on := range mark {
		if on {
			s.verts = append(s.verts, v)
			mark[v] = false
		}
	}
}

// capacityNetwork fills the scratch with the capacity stage's
// perturbed network over ov, whose Final view is final: capW holds the
// final view's capacity per conduit (the base conduits first,
// overlay-new ones after), extra the overlay-new conduits as edges
// weighted by capacity, and capD the difference from cb's baseline. An
// untouched conduit keeps its base tenancy, so capW starts as the
// baseline table and only the touched conduits are recomputed; it
// returns how many. Allocation-free once warm.
func (s *evalScratch) capacityNetwork(cb *capacityBaseline, g *graph.Graph, ov *fiber.Overlay, final fiber.View) int {
	nb := ov.NumBaseConduits()
	s.capW = append(s.capW[:0], cb.caps...)
	d := &s.capD
	d.dropped, d.grown = d.dropped[:0], d.grown[:0]
	s.extra = s.extra[:0]
	touched := ov.Touched()
	for _, cid := range touched {
		c := fiber.ConduitCapacityGbps(final, cid)
		if int(cid) >= nb {
			a, b := final.ConduitEnds(cid)
			e := graph.Edge{U: int(a), V: int(b), Weight: c}
			s.capW = append(s.capW, c)
			s.extra = append(s.extra, e)
			if c > 0 {
				d.grown = append(d.grown, e)
			}
			continue
		}
		s.capW[cid] = c
		switch {
		case c < cb.caps[cid]:
			d.dropped = append(d.dropped, int(cid))
		case c > cb.caps[cid]:
			d.grown = append(d.grown, g.Edge(int(cid)))
		}
	}
	return len(touched)
}

// maskWeights fills dst with the provider's unit weight row under the
// perturbation: merged-addition tenancy gains first, then cuts to
// +Inf — the same order the mutation path applies them, so a cut
// merged-addition conduit stays dark. Allocation-free.
func maskWeights(dst, baseRow []float64, gains []fiber.ConduitID, cuts []fiber.ConduitID) {
	copy(dst, baseRow)
	for _, cid := range gains {
		dst[cid] = 1
	}
	inf := math.Inf(1)
	for _, cid := range cuts {
		dst[cid] = inf
	}
}

// overlayOf records the scenario, its cut clauses resolved to cuts,
// as a copy-on-write overlay over the baseline. An addition with no
// tenant list is open access: every kept provider lights the build.
func (e *Engine) overlayOf(sc Scenario, kept []string, cuts []fiber.ConduitID) (ov *fiber.Overlay, pert fiber.Perturbation, err error) {
	m := e.snap.res.Map
	pert.Cuts = cuts
	pert.RemoveISPs = sc.RemoveISPs
	for _, ad := range sc.Additions {
		a, ok := m.NodeByKey(ad.A)
		if !ok {
			return nil, pert, fmt.Errorf("scenario: unknown node %q in addition", ad.A)
		}
		b, ok := m.NodeByKey(ad.B)
		if !ok {
			return nil, pert, fmt.Errorf("scenario: unknown node %q in addition", ad.B)
		}
		tenants := ad.Tenants
		if len(tenants) == 0 {
			tenants = kept
		}
		pert.Additions = append(pert.Additions, fiber.OverlayAddition{A: a, B: b, Tenants: tenants})
	}
	ov, err = fiber.NewOverlay(m, pert)
	return ov, pert, err
}

func (e *Engine) evaluateOverlay(ctx context.Context, sc Scenario) (*Result, error) {
	checkpoint := func() error { return ctx.Err() }
	if err := checkpoint(); err != nil {
		return nil, err
	}

	m := e.snap.res.Map
	base := e.snap.baseline()

	// Stage spans carry the attribution story of the overlay path —
	// which stages ran against the delta, which reused baseline rows,
	// and for how many touched providers. stage() brackets one section;
	// attrs are no-ops unless the evaluation is being recorded.
	stage := func(name string, fn func(sp *obs.Span) error) error {
		_, sp := obs.Trace(ctx, name)
		defer sp.End()
		return fn(sp)
	}

	var (
		res  *Result
		kept []string
		pert fiber.Perturbation
		ov   *fiber.Overlay
	)
	removed := make(map[string]bool, len(sc.RemoveISPs))
	err := stage("scenario.stage.apply", func(sp *obs.Span) error {
		kept = e.keptISPs(sc)
		cuts, candidates, err := e.resolveCuts(sc)
		if err != nil {
			return err
		}
		if ov, pert, err = e.overlayOf(sc, kept, cuts); err != nil {
			return err
		}
		res = &Result{
			Hash:          sc.Hash(),
			Scenario:      sc,
			Cut:           pert.Cuts,
			ConduitsCut:   len(pert.Cuts),
			ISPsRemoved:   sc.RemoveISPs,
			LinksRemoved:  ov.LinksRemoved(),
			ConduitsAdded: len(pert.Additions),
		}
		for _, cid := range pert.Cuts {
			res.TenanciesCut += len(m.Conduit(cid).Tenants)
		}
		for _, isp := range sc.RemoveISPs {
			removed[isp] = true
		}
		sp.SetAttrInt("cuts", int64(len(pert.Cuts)))
		sp.SetAttrInt("additions", int64(len(pert.Additions)))
		sp.SetAttrInt("region_candidates", int64(candidates))
		return nil
	})
	if err != nil {
		return nil, err
	}
	cuts := res.Cut

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// The matrix stage updates the baseline's integer tables at the
	// conduits the overlay touched; every other conduit reads as in the
	// baseline.
	final := ov.Final()
	_ = stage("scenario.stage.matrix", func(sp *obs.Span) error {
		touched := ov.Touched()
		after := base.risk.Perturb(final, touched, kept)
		res.Stats = StatsDelta{Before: base.stats, After: final.Stats()}
		fillSharing(res, base, after.SharingCounts)
		fillRanking(res, base, after.Ranking)
		sp.SetAttrInt("isps", int64(len(kept)))
		sp.SetAttrInt("conduits_touched", int64(len(touched)))
		return nil
	})

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Touched set: a surviving provider's connectivity or partition
	// answer can only change if a cut conduit carries its tenancy or an
	// addition lights it. Everything else reuses its baseline row —
	// recomputing it would give the identical value.
	touched := make(map[string]uint8)
	for _, cid := range cuts {
		for _, isp := range m.Tenants(cid) {
			if !removed[isp] {
				touched[isp] |= touchedCut
			}
		}
	}
	for _, ad := range pert.Additions {
		for _, isp := range ad.Tenants {
			if !removed[isp] {
				touched[isp] |= touchedAdd
			}
		}
	}

	scr := getScratch(base.g.NumEdges())
	defer putScratch(scr)
	cutMask := ov.CutMask()

	// Per-ISP disconnection on the plus view (cuts excluded by weight,
	// footprints intact), in matrix order then stable-sorted by damage
	// — CutImpact's exact ordering. A provider only a cut touched reads
	// its snapshot row and footprint as they are; one an addition
	// lights reads its row with the gains merged in.
	_ = stage("scenario.stage.disconnection", func(sp *obs.Span) error {
		recomputed := 0
		impacts := make([]resilience.Impact, 0, len(kept))
		for _, isp := range kept {
			bits := touched[isp]
			if bits == 0 {
				impacts = append(impacts, base.disc[isp])
				continue
			}
			recomputed++
			i := base.ispIdx[isp]
			verts, row, extra := base.ispVerts[i], base.ispW[i], []graph.Edge(nil)
			if bits&touchedAdd != 0 {
				scr.providerRow(base, ov, final, pert.Additions, isp, nil)
				verts, row, extra = scr.verts, scr.w, scr.extra
			}
			impacts = append(impacts, scr.imp.ImpactOn(base.g, isp, verts, row, extra, cuts, cutMask))
		}
		sort.SliceStable(impacts, func(i, j int) bool {
			return impacts[i].DisconnectedPairs > impacts[j].DisconnectedPairs
		})
		fillDisconnection(res, base, impacts)
		setReuseAttrs(sp, recomputed, len(kept)-recomputed)
		return nil
	})

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Partition cost on the final view. Touched providers run the
	// sparse Stoer-Wagner kernel over their masked snapshot row; the
	// rest reuse the baseline cost.
	_ = stage("scenario.stage.partition", func(sp *obs.Span) error {
		fast0, full0 := scr.ws.MinCutStats()
		recomputed := 0
		type pcost struct {
			isp string
			min int
		}
		pcs := make([]pcost, 0, len(kept))
		for _, isp := range kept {
			if touched[isp] == 0 {
				pcs = append(pcs, pcost{isp: isp, min: base.part[isp]})
				continue
			}
			recomputed++
			scr.providerRow(base, ov, final, pert.Additions, isp, cuts)
			min := resilience.PartitionCostWS(base.g, scr.ws, scr.verts, scr.w, scr.extra)
			pcs = append(pcs, pcost{isp: isp, min: min})
		}
		sort.SliceStable(pcs, func(i, j int) bool { return pcs[i].min < pcs[j].min })
		for _, pc := range pcs {
			res.Partition = append(res.Partition, PartitionShift{
				ISP:    pc.isp,
				Before: base.part[pc.isp],
				After:  pc.min,
			})
		}
		setReuseAttrs(sp, recomputed, len(kept)-recomputed)
		fast, full := scr.ws.MinCutStats()
		sp.SetAttrInt("mincut_fastpath", int64(fast-fast0))
		sp.SetAttrInt("mincut_stoerwagner", int64(full-full0))
		return nil
	})

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Capacity stage: re-flow the gravity demand matrix over the
	// perturbed capacities. Base conduit capacities are the baseline
	// table with the touched conduits read from the final view (cuts
	// dark, removals thinned, merged additions widened); overlay-new
	// conduits ride as extra edges. A pair the capacity changes
	// provably cannot move keeps its memoized baseline answer; touched
	// counts the pairs that re-flowed, maxflow_phases the Dinic level
	// searches they ran, and capacities_recomputed the conduits whose
	// capacity was read from the view.
	_ = stage("scenario.stage.capacity", func(sp *obs.Span) error {
		_, searches0 := scr.ws.MaxFlowStats()
		cb := e.snap.capacity()
		nb := ov.NumBaseConduits()
		recomputed := scr.capacityNetwork(cb, base.g, ov, final)
		served, flows := cb.servedOn(base.g, scr.ws, scr.capW[:nb], scr.extra, &scr.capD)
		res.LostTraffic = cb.lostTraffic(served)
		setReuseAttrs(sp, flows, len(cb.demands)-flows)
		_, searches := scr.ws.MaxFlowStats()
		sp.SetAttrInt("maxflow_phases", int64(searches-searches0))
		sp.SetAttrInt("capacities_recomputed", int64(recomputed))
		return nil
	})

	// The opt-in stages, each skipped unless the scenario asks for it.
	if err := e.latencyStage(ctx, sc, final, res); err != nil {
		return nil, err
	}
	if err := e.trafficStage(ctx, sc, final, res); err != nil {
		return nil, err
	}
	return res, nil
}

// setReuseAttrs records a stage's reuse attribution: how many
// providers it recomputed against the delta vs served from baseline
// rows, and the stage outcome ("reused" when the delta touched no one).
func setReuseAttrs(sp *obs.Span, recomputed, reused int) {
	outcome := "reused"
	if recomputed > 0 {
		outcome = "recomputed"
	}
	sp.SetAttr("outcome", outcome)
	sp.SetAttrInt("touched", int64(recomputed))
	sp.SetAttrInt("reused", int64(reused))
}

// gainsFor collects the merged-addition base conduits where the
// provider gains tenancy. Small inputs; allocates only when the
// provider actually gained something.
func gainsFor(adds []fiber.OverlayAddition, targets []fiber.ConduitID, numBase int, isp string) []fiber.ConduitID {
	var gains []fiber.ConduitID
	for i, ad := range adds {
		if int(targets[i]) >= numBase {
			continue
		}
		for _, t := range ad.Tenants {
			if t == isp {
				gains = append(gains, targets[i])
				break
			}
		}
	}
	return gains
}
