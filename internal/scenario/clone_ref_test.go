package scenario

import (
	"context"
	"fmt"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/latency"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
)

// clone_ref_test.go is the executable specification of scenario
// evaluation: the clone-per-scenario evaluator the overlay engine
// replaced. It deep-copies the map per scenario, mutates the copies,
// and re-runs every analysis on them through the package-level
// entry points (risk.Build, resilience.CutImpact and PartitionCosts,
// the demand matrix on the materialized map's own graph). The
// differential suite in overlay_equiv_test.go, FuzzOverlayEvaluate and
// the capacity tests compare Engine.Evaluate against it byte for byte.

// referenceEvaluate evaluates sc against eng's baseline
// through the clone evaluator, resolving it first exactly as Evaluate
// does, so both report the same errors.
func referenceEvaluate(ctx context.Context, eng *Engine, sc Scenario) (*Result, error) {
	sc, err := Resolve(sc)
	if err != nil {
		return nil, err
	}
	return evaluateClone(ctx, eng, sc)
}

// referenceOutcome is Sweep's slot for sc, computed by the reference.
func referenceOutcome(ctx context.Context, eng *Engine, sc Scenario) Outcome {
	res, err := referenceEvaluate(ctx, eng, sc)
	if err != nil {
		return Outcome{Err: err.Error(), Canceled: isCancellation(err)}
	}
	return Outcome{Result: res}
}

// evaluateClone clones the map, mutates, and re-runs every analysis.
// sc must already be resolved.
func evaluateClone(ctx context.Context, e *Engine, sc Scenario) (*Result, error) {
	// checkpoint guards stage boundaries: the cheap stages below run a
	// few hundred microseconds each, so between-stage checks plus the
	// in-scan chunk-grant checks bound cancellation latency without a
	// determinism cost.
	checkpoint := func() error { return ctx.Err() }
	if err := checkpoint(); err != nil {
		return nil, err
	}

	m := e.snap.res.Map
	base := e.snap.baseline()

	cm, err := cloneMaps(e, sc)
	if err != nil {
		return nil, err
	}
	cuts, pmPlus, pm, kept := cm.cuts, cm.plus, cm.final, e.keptISPs(sc)
	res := &Result{
		Hash:          sc.Hash(),
		Scenario:      sc,
		Cut:           cuts,
		ConduitsCut:   len(cuts),
		ISPsRemoved:   sc.RemoveISPs,
		LinksRemoved:  cm.linksRemoved,
		ConduitsAdded: len(sc.Additions),
	}
	for _, cid := range cuts {
		res.TenanciesCut += len(m.Conduit(cid).Tenants)
	}

	if err := checkpoint(); err != nil {
		return nil, err
	}

	mx2 := risk.Build(pm, kept)

	res.Stats = StatsDelta{Before: base.stats, After: pm.Stats()}
	fillSharing(res, base, mx2)
	fillRanking(res, base, mx2)

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Per-ISP disconnection: pmPlus keeps full footprints, the cut set
	// is excluded by weight inside CutImpact.
	fillDisconnection(res, base, resilience.CutImpact(pmPlus, mx2, cuts))

	// Partition cost on the fully perturbed map, most fragile first.
	for _, pc := range resilience.PartitionCosts(pm, kept) {
		res.Partition = append(res.Partition, PartitionShift{
			ISP:    pc.ISP,
			Before: base.part[pc.ISP],
			After:  pc.MinCuts,
		})
	}

	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Capacity stage: the gravity demand matrix re-flowed over the
	// fully perturbed map's own graph — the specification the
	// evaluator's unchanged-capacity reuse is tested against.
	res.LostTraffic = lostTrafficClone(e.snap, pm)

	err = e.latencyStage(ctx, sc, res, func(ctx context.Context) (*latency.Atlas, error) {
		return latency.Build(ctx, pm, latency.Options{Workers: e.opts.Workers})
	})
	if err != nil {
		return nil, err
	}
	if err := e.trafficStage(ctx, sc, pm, res); err != nil {
		return nil, err
	}
	return res, nil
}

// perturbedMaps is the clone reference's pair of perturbed maps.
type perturbedMaps struct {
	// cuts is the resolved cut set; linksRemoved counts the (ISP,
	// conduit) links the removal clause severed.
	cuts         []fiber.ConduitID
	linksRemoved int
	// plus has removals and additions applied, cut conduits still lit
	// — the topology used for connectivity, where a severed node must
	// still count against its provider's pair total. final is plus
	// with the cuts dark: the fully perturbed map.
	plus, final *fiber.Map
}

// cloneMaps deep-copies the baseline map and replays sc on the copies
// through the mutation primitives: removals, then additions, then cuts.
func cloneMaps(e *Engine, sc Scenario) (*perturbedMaps, error) {
	cuts, err := e.ResolveCuts(sc)
	if err != nil {
		return nil, err
	}
	pm := &perturbedMaps{cuts: cuts, plus: e.snap.res.Map.Clone()}
	for _, isp := range sc.RemoveISPs {
		pm.linksRemoved += pm.plus.RemoveISP(isp)
	}
	kept := e.keptISPs(sc)
	for _, ad := range sc.Additions {
		if err := applyAddition(pm.plus, ad, kept); err != nil {
			return nil, err
		}
	}
	pm.final = pm.plus.Clone()
	for _, cid := range cuts {
		pm.final.ClearTenants(cid)
	}
	return pm, nil
}

// applyAddition materializes one new build on the perturbed map. An
// empty tenant list means open access: every kept baseline provider
// lights the new conduit.
func applyAddition(pm *fiber.Map, ad Addition, kept []string) error {
	a, ok := pm.NodeByKey(ad.A)
	if !ok {
		return fmt.Errorf("scenario: unknown node %q in addition", ad.A)
	}
	b, ok := pm.NodeByKey(ad.B)
	if !ok {
		return fmt.Errorf("scenario: unknown node %q in addition", ad.B)
	}
	path := geo.Polyline{pm.Node(a).Loc, pm.Node(b).Loc}
	cid := pm.EnsureConduit(a, b, -1, path)
	tenants := ad.Tenants
	if len(tenants) == 0 {
		tenants = kept
	}
	for _, isp := range tenants {
		pm.AddTenant(cid, isp)
	}
	return nil
}

// lostTrafficClone is the reference capacity stage: recompute every
// pair on the perturbed map's own graph, reusing none.
func lostTrafficClone(snap *snapshot, pm *fiber.Map) *LostTraffic {
	cb := snap.capacity()
	g, ws, caps := fiber.Graph(pm), graph.NewWorkspace(), capacityTable(pm, nil)
	served := 0.0
	for _, d := range cb.demands {
		served += g.MaxFlow(ws, int(d.s), int(d.t), caps, nil, d.gbps)
	}
	return cb.lostTraffic(served)
}
