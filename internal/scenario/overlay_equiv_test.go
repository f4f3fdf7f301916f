package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
)

// overlay_equiv_test.go is the clone-vs-overlay differential harness:
// the engine's copy-on-write evaluation must produce byte-identical
// Result JSON to the clone-per-scenario reference (clone_ref_test.go)
// for every preset, for randomized composite scenarios, across engine
// reuse (pooled scratch), and at any sweep worker count.

// enginePair returns the engine under test and a second engine over
// the same baseline whose snapshot the clone reference runs on, so
// the two never share memoized state.
func enginePair(t *testing.T) (overlay, clone *Engine) {
	t.Helper()
	res, mx := build(t)
	overlay = New(res, mx, Options{Seed: 42})
	clone = New(res, mx, Options{Seed: 42})
	return overlay, clone
}

func evalJSON(t *testing.T, eng *Engine, sc Scenario) []byte {
	t.Helper()
	r, err := eng.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatalf("evaluate %+v: %v", sc, err)
	}
	return mustJSON(t, r)
}

// cloneJSON is evalJSON through the clone reference on eng's snapshot.
func cloneJSON(t *testing.T, eng *Engine, sc Scenario) []byte {
	t.Helper()
	r, err := referenceEvaluate(context.Background(), eng, sc)
	if err != nil {
		t.Fatalf("reference evaluate %+v: %v", sc, err)
	}
	return mustJSON(t, r)
}

// diffJSON pinpoints the first divergence so a failure is debuggable.
func diffJSON(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := i+120, i+120
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	t.Errorf("%s: overlay and clone Results diverge at byte %d:\n overlay: …%s…\n clone:   …%s…",
		label, i, got[lo:hiG], want[lo:hiW])
}

// equivScenarios is the deterministic part of the differential corpus:
// the zero scenario, every preset, and composites exercising each
// interaction the overlay must replicate (cut a merged addition,
// re-add a removed provider, open-access additions, overlapping cut
// clauses).
func equivScenarios(t *testing.T) []Scenario {
	t.Helper()
	res, mx := build(t)
	m := res.Map
	k0, k1 := m.Node(0).Key(), m.Node(1).Key()
	kLast := m.Node(fiber.NodeID(m.NumNodes() - 1)).Key()

	scs := []Scenario{
		{}, // zero scenario: nothing perturbed, everything reused
	}
	for _, name := range PresetNames() {
		scs = append(scs, Scenario{Preset: name})
	}
	scs = append(scs,
		// Cut an explicit conduit plus overlapping most-shared set.
		Scenario{CutConduits: mx.TopShared(2)[:1], CutMostShared: 4},
		// Remove two providers and cut conduits they occupied.
		Scenario{RemoveISPs: mx.ISPs[:2], CutMostShared: 3},
		// Remove a provider and explicitly re-add it on a new build.
		Scenario{
			RemoveISPs: []string{mx.ISPs[0]},
			Additions:  []Addition{{A: k0, B: kLast, Tenants: []string{mx.ISPs[0]}}},
		},
		// Open-access addition (touches every kept provider).
		Scenario{Additions: []Addition{{A: k0, B: kLast}}},
		// Addition that merges with an existing corridor-less conduit,
		// then cut underneath it.
		Scenario{
			CutConduits: mx.TopShared(1),
			Additions:   []Addition{{A: k0, B: k1, Tenants: []string{mx.ISPs[1]}}},
		},
		// Everything at once.
		Scenario{
			CutMostShared:  3,
			CutMostBetween: 3,
			Regions:        []Region{{Lat: 29.95, Lon: -90.07, RadiusKm: 250}},
			RemoveISPs:     []string{mx.ISPs[2]},
			Additions: []Addition{
				{A: k0, B: kLast, Tenants: []string{mx.ISPs[0], mx.ISPs[3]}},
				{A: k1, B: kLast},
			},
		},
	)
	return scs
}

// TestProviderRowMatchesViews pins the dense-row helper the
// disconnection and partition stages read to the overlay views it
// replaces: the row marks exactly the base conduits the provider holds
// in the view, extra holds exactly its overlay-new conduits, and verts
// is NodesOf — on Plus without cuts, on Final with them.
func TestProviderRowMatchesViews(t *testing.T) {
	eng := newEngine(t, 0)
	base := eng.snap.baseline()
	scr := getScratch(base.g.NumEdges())
	defer putScratch(scr)
	for i, sc := range equivScenarios(t) {
		sc, err := Resolve(sc)
		if err != nil {
			t.Fatal(err)
		}
		ov, pert, err := eng.buildOverlay(sc, eng.keptISPs(sc))
		if err != nil {
			t.Fatal(err)
		}
		final := ov.Final()
		nb := ov.NumBaseConduits()
		for _, isp := range eng.keptISPs(sc) {
			for _, tc := range []struct {
				view fiber.View
				cuts []fiber.ConduitID
			}{{ov.Plus(), nil}, {final, pert.Cuts}} {
				scr.providerRow(base, ov, final, pert.Additions, isp, tc.cuts)
				for cid := 0; cid < nb; cid++ {
					if on := scr.w[cid] == 1; on != tc.view.HasTenant(fiber.ConduitID(cid), isp) {
						t.Fatalf("scenario %d %s (cuts %v): row marks conduit %d %v", i, isp, tc.cuts != nil, cid, on)
					}
				}
				var extra []graph.Edge
				for cid := fiber.ConduitID(nb); int(cid) < tc.view.NumConduits(); cid++ {
					if tc.view.HasTenant(cid, isp) {
						a, b := tc.view.ConduitEnds(cid)
						extra = append(extra, graph.Edge{U: int(a), V: int(b), Weight: 1})
					}
				}
				if fmt.Sprint(scr.extra) != fmt.Sprint(extra) {
					t.Fatalf("scenario %d %s (cuts %v): extra %v, view %v", i, isp, tc.cuts != nil, scr.extra, extra)
				}
				var verts []int
				for _, n := range tc.view.NodesOf(isp) {
					verts = append(verts, int(n))
				}
				if fmt.Sprint(scr.verts) != fmt.Sprint(verts) {
					t.Fatalf("scenario %d %s (cuts %v): verts %v, NodesOf %v", i, isp, tc.cuts != nil, scr.verts, verts)
				}
			}
		}
	}
}

func TestOverlayMatchesClonePresets(t *testing.T) {
	ovEng, clEng := enginePair(t)
	for i, sc := range equivScenarios(t) {
		label := sc.Preset
		if label == "" {
			label = fmt.Sprintf("composite-%d", i)
		}
		diffJSON(t, label, evalJSON(t, ovEng, sc), cloneJSON(t, clEng, sc))
	}
}

// TestOverlayMatchesCloneLatencyTraffic runs the opt-in stages on
// every latencyTrafficScenarios entry: virtual conduit ids, corridor
// -1 and the tally size are where the overlay view and the clone's
// mutated map could disagree.
func TestOverlayMatchesCloneLatencyTraffic(t *testing.T) {
	ovEng, clEng := enginePair(t)
	for _, ns := range latencyTrafficScenarios() {
		diffJSON(t, ns.name, evalJSON(t, ovEng, ns.sc), cloneJSON(t, clEng, ns.sc))
	}
}

// randomScenario draws a composite scenario over valid map entities.
func randomScenario(rng *rand.Rand, eng *Engine) Scenario {
	m := eng.snap.res.Map
	isps := eng.snap.mx.ISPs
	var sc Scenario
	for i := 0; i < rng.Intn(4); i++ {
		sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(rng.Intn(m.NumConduits())))
	}
	if rng.Intn(3) == 0 {
		sc.CutMostShared = rng.Intn(6)
	}
	if rng.Intn(4) == 0 {
		sc.CutMostBetween = rng.Intn(5)
	}
	if rng.Intn(4) == 0 {
		sc.Regions = []Region{{
			Lat: 25 + rng.Float64()*20, Lon: -120 + rng.Float64()*40,
			RadiusKm: 50 + rng.Float64()*300,
		}}
	}
	for i := 0; i < rng.Intn(3); i++ {
		sc.RemoveISPs = append(sc.RemoveISPs, isps[rng.Intn(len(isps))])
	}
	for i := 0; i < rng.Intn(3); i++ {
		a := rng.Intn(m.NumNodes())
		b := rng.Intn(m.NumNodes())
		if a == b {
			continue
		}
		var tenants []string
		for j := 0; j < rng.Intn(3); j++ { // 0 = open access
			tenants = append(tenants, isps[rng.Intn(len(isps))])
		}
		sc.Additions = append(sc.Additions, Addition{
			A: m.Node(fiber.NodeID(a)).Key(), B: m.Node(fiber.NodeID(b)).Key(), Tenants: tenants,
		})
	}
	return sc
}

func TestOverlayMatchesCloneRandomized(t *testing.T) {
	ovEng, clEng := enginePair(t)
	rng := rand.New(rand.NewSource(7))
	n := 25
	if testing.Short() {
		n = 6
	}
	for trial := 0; trial < n; trial++ {
		sc := randomScenario(rng, ovEng)
		diffJSON(t, fmt.Sprintf("trial-%d", trial), evalJSON(t, ovEng, sc), cloneJSON(t, clEng, sc))
	}
}

// TestOverlayEngineReuse pins scratch hygiene: one engine evaluating
// a sequence of scenarios twice (pooled workspaces, reused weight
// masks) must reproduce its own first-pass bytes exactly.
func TestOverlayEngineReuse(t *testing.T) {
	ovEng, _ := enginePair(t)
	scs := equivScenarios(t)
	first := make([][]byte, len(scs))
	for i, sc := range scs {
		first[i] = evalJSON(t, ovEng, sc)
	}
	for i, sc := range scs {
		diffJSON(t, fmt.Sprintf("reuse-%d", i), evalJSON(t, ovEng, sc), first[i])
	}
}

// TestSweepOverlayWorkerInvariance: a sweep's outcome bytes are
// identical at one worker and many, and identical to the clone
// reference's outcomes, computed one scenario at a time.
func TestSweepOverlayWorkerInvariance(t *testing.T) {
	ovEng, clEng := enginePair(t)
	scs := equivScenarios(t)

	ctx := context.Background()
	serial := mustJSON(t, Sweep(ctx, ovEng, scs, 1))
	parallel := mustJSON(t, Sweep(ctx, ovEng, scs, 8))
	diffJSON(t, "overlay 1-vs-8 workers", parallel, serial)
	ref := make([]Outcome, len(scs))
	for i, sc := range scs {
		ref[i] = referenceOutcome(ctx, clEng, sc)
	}
	diffJSON(t, "overlay-vs-clone sweep", serial, mustJSON(t, ref))
}
