package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

var (
	cachedRes *mapbuilder.Result
	cachedMx  *risk.Matrix
)

// build returns one shared baseline study for the package's tests; the
// engine never mutates it, so sharing is safe.
func build(t *testing.T) (*mapbuilder.Result, *risk.Matrix) {
	t.Helper()
	if cachedRes == nil {
		cachedRes = mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
		cachedMx = risk.Build(cachedRes.Map, nil)
	}
	return cachedRes, cachedMx
}

func newEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	res, mx := build(t)
	return New(res, mx, Options{Seed: 42, Workers: workers})
}

// buildOverlay resolves the scenario's cut clauses and records it as a
// copy-on-write overlay over the baseline, as the apply stage does.
func (e *Engine) buildOverlay(sc Scenario, kept []string) (*fiber.Overlay, fiber.Perturbation, error) {
	cuts, _, err := e.resolveCuts(sc)
	if err != nil {
		return nil, fiber.Perturbation{}, err
	}
	return e.overlayOf(sc, kept, cuts)
}

func TestEvaluateCutScenario(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{Preset: "top12-cut"})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConduitsCut != 12 {
		t.Errorf("ConduitsCut = %d, want 12", r.ConduitsCut)
	}
	if r.TenanciesCut == 0 {
		t.Error("cutting the most-shared conduits severed no tenancies")
	}
	if r.Stats.After.Links >= r.Stats.Before.Links {
		t.Errorf("links should drop: %d -> %d", r.Stats.Before.Links, r.Stats.After.Links)
	}
	if r.Hash == "" || r.Scenario.Preset != "" {
		t.Errorf("result should carry hash + resolved scenario: %+v", r.Scenario)
	}
	if len(r.Sharing) == 0 || len(r.Ranking) == 0 || len(r.Disconnection) == 0 || len(r.Partition) == 0 {
		t.Fatalf("missing delta sections: %+v", r)
	}
	// The most-shared conduits are shared by nearly every provider, so
	// the top of the sharing distribution must shrink.
	top := r.Sharing[len(r.Sharing)-1]
	if top.After >= top.Before && top.Before > 0 {
		t.Errorf("top sharing bucket did not shrink: %+v", top)
	}
	// A pure-cut scenario can only lose connectivity: After >= Before
	// for every provider.
	for _, d := range r.Disconnection {
		if d.After < d.Before {
			t.Errorf("disconnection for %s improved under a cut: %v -> %v", d.ISP, d.Before, d.After)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	// Same scenario, fresh engines, different worker counts: the
	// results must be deeply equal — this is what makes the hash a safe
	// cache key.
	sc := Scenario{Preset: "gulf-hurricane"}
	var results []*Result
	for _, workers := range []int{1, 4} {
		eng := newEngine(t, workers)
		r, err := eng.Evaluate(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("evaluation differs across worker counts")
	}
}

func TestEvaluateRemoveISP(t *testing.T) {
	res, mx := build(t)
	eng := newEngine(t, 0)
	victim := mx.ISPs[0]
	r, err := eng.Evaluate(context.Background(), Scenario{RemoveISPs: []string{victim}})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinksRemoved != len(res.Map.ConduitsOf(victim)) {
		t.Errorf("LinksRemoved = %d, want %d", r.LinksRemoved, len(res.Map.ConduitsOf(victim)))
	}
	for _, rk := range r.Ranking {
		if rk.ISP == victim {
			t.Errorf("removed provider %s still ranked", victim)
		}
	}
	for _, d := range r.Disconnection {
		if d.ISP == victim {
			t.Errorf("removed provider %s still in disconnection table", victim)
		}
	}
	if len(r.Ranking) != len(mx.ISPs)-1 {
		t.Errorf("ranking rows = %d, want %d", len(r.Ranking), len(mx.ISPs)-1)
	}
}

func TestEvaluateAddition(t *testing.T) {
	res, _ := build(t)
	eng := newEngine(t, 0)
	a, b := res.Map.Node(0).Key(), res.Map.Node(1).Key()
	r, err := eng.Evaluate(context.Background(), Scenario{
		Additions: []Addition{{A: a, B: b, Tenants: []string{"Level 3"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConduitsAdded != 1 {
		t.Errorf("ConduitsAdded = %d, want 1", r.ConduitsAdded)
	}
	if r.Stats.After.Links != r.Stats.Before.Links+1 {
		t.Errorf("links %d -> %d, want +1", r.Stats.Before.Links, r.Stats.After.Links)
	}

	if _, err := eng.Evaluate(context.Background(), Scenario{
		Additions: []Addition{{A: "Nowhere,ZZ", B: a}},
	}); err == nil {
		t.Error("unknown node key should fail evaluation")
	}
}

func TestEvaluateLatencyAndTraffic(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{
		Preset:         "top12-cut",
		IncludeLatency: true,
		IncludeTraffic: true,
		Overrides:      Overrides{LatencyMaxPairs: 120, Probes: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency == nil || r.Latency.MaxPairs != 120 {
		t.Fatalf("latency delta missing or wrong cap: %+v", r.Latency)
	}
	if r.Latency.Before.Pairs == 0 {
		t.Error("baseline latency study found no pairs")
	}
	if r.Traffic == nil || r.Traffic.Probes != 4000 {
		t.Fatalf("traffic delta missing or wrong probes: %+v", r.Traffic)
	}
	if r.Traffic.Before.Conduits == 0 {
		t.Error("baseline traffic overlay saw no conduits")
	}
}

func TestResolveCutsUnion(t *testing.T) {
	eng := newEngine(t, 0)
	shared := eng.Matrix().TopShared(3)
	sc, err := Resolve(Scenario{
		CutConduits:   []fiber.ConduitID{shared[0], 0},
		CutMostShared: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts, _, err := eng.resolveCuts(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := dedupeIDs(append([]fiber.ConduitID{shared[0], 0}, shared...))
	if !reflect.DeepEqual(cuts, want) {
		t.Errorf("cuts = %v, want union %v", cuts, want)
	}

	if _, _, err := eng.resolveCuts(Scenario{CutConduits: []fiber.ConduitID{1 << 30}}); err == nil {
		t.Error("out-of-range conduit should fail")
	}
}

func TestRegionCutsMatchResilience(t *testing.T) {
	eng := newEngine(t, 0)
	sc, err := Resolve(Scenario{Preset: "gulf-hurricane"})
	if err != nil {
		t.Fatal(err)
	}
	cuts, _, err := eng.resolveCuts(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("a 350 km Gulf Coast disaster cut nothing")
	}
}

// TestRegionalDisaster evaluates a 200 km hurricane over the Gulf
// coast near New Orleans through the engine's Regions clause: it cuts
// conduits, severs at least one tenancy per conduit, and disconnects
// some providers but not all of them equally.
func TestRegionalDisaster(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{
		Regions: []Region{{Lat: 29.95, Lon: -90.07, RadiusKm: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConduitsCut == 0 {
		t.Fatal("a Gulf hurricane should cut conduits")
	}
	if r.TenanciesCut < r.ConduitsCut {
		t.Error("tenancies cut must be >= conduits cut")
	}
	if len(r.Disconnection) != 20 {
		t.Fatalf("disconnection rows = %d", len(r.Disconnection))
	}
	// Rows are sorted by damage, worst first.
	worst := r.Disconnection[0].After
	if worst <= 0 {
		t.Error("nobody affected by a 200 km Gulf hurricane")
	}
	if best := r.Disconnection[len(r.Disconnection)-1].After; best >= worst {
		t.Error("impact should vary across providers")
	}
}

func TestRenderResult(t *testing.T) {
	eng := newEngine(t, 0)
	r, err := eng.Evaluate(context.Background(), Scenario{Preset: "level3-exit"})
	if err != nil {
		t.Fatal(err)
	}
	text := Render(r)
	for _, want := range []string{"level3-exit", "providers removed", "Sharing distribution", "Risk ranking", "Minimum cuts"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

// TestNestedCutsMonotone holds the engine to what cutting more can
// only do: for random cut sets S ⊂ S' (1–6 conduits, then 1–6 more),
// S' serves no more Gbps, and leaves every provider no less
// disconnected and its largest component no larger; an open-access
// addition alone serves no less than the baseline. Every Result must
// marshal. Partition cost is left out: it is not monotone, because
// PartitionShift.After is taken over the provider's surviving
// footprint, which a larger cut can shrink to a connected remainder.
func TestNestedCutsMonotone(t *testing.T) {
	eng := newEngine(t, 0)
	res, _ := build(t)
	m := res.Map
	rng := rand.New(rand.NewSource(25))
	ctx := context.Background()
	eval := func(sc Scenario) *Result {
		t.Helper()
		r, err := eng.Evaluate(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Fatalf("%+v: Result does not marshal: %v", sc, err)
		}
		return r
	}
	for i := 0; i < 200; i++ {
		cut, k := nestedCuts(rng, m)
		r, rs := eval(Scenario{CutConduits: cut[:k]}), eval(Scenario{CutConduits: cut})
		if a, b := r.LostTraffic.ServedAfterGbps, rs.LostTraffic.ServedAfterGbps; b > a {
			t.Errorf("cut %v serves %v Gbps, its superset %v serves more: %v", cut[:k], a, cut, b)
		}
		small := make(map[string]Disconnection, len(r.Disconnection))
		for _, d := range r.Disconnection {
			small[d.ISP] = d
		}
		for _, d := range rs.Disconnection {
			s, ok := small[d.ISP]
			switch {
			case !ok:
				t.Errorf("cut %v: no disconnection row for %s", cut[:k], d.ISP)
			case d.After < s.After:
				t.Errorf("%s: disconnection %v under cut %v falls to %v under %v", d.ISP, s.After, cut[:k], d.After, cut)
			case d.LargestComponent > s.LargestComponent:
				t.Errorf("%s: largest component %v under cut %v grows to %v under %v", d.ISP, s.LargestComponent, cut[:k], d.LargestComponent, cut)
			}
		}
	}
	for i := 0; i < 100; i++ {
		ad := openAddition(rng, m)
		lt := eval(Scenario{Additions: []Addition{ad}}).LostTraffic
		if lt.ServedAfterGbps < lt.ServedBeforeGbps {
			t.Errorf("addition %s–%s serves %v Gbps, below the baseline's %v", ad.A, ad.B, lt.ServedAfterGbps, lt.ServedBeforeGbps)
		}
	}
}

// nestedCuts draws a cut set S' of distinct conduits whose first k
// form S ⊂ S': 1–6 conduits, then 1–6 more.
func nestedCuts(rng *rand.Rand, m *fiber.Map) (cut []fiber.ConduitID, k int) {
	perm := rng.Perm(m.NumConduits())
	k = 1 + rng.Intn(6)
	cut = make([]fiber.ConduitID, k+1+rng.Intn(6))
	for j := range cut {
		cut[j] = fiber.ConduitID(perm[j])
	}
	return cut, k
}

// openAddition draws an open-access build between two distinct nodes.
func openAddition(rng *rand.Rand, m *fiber.Map) Addition {
	a := rng.Intn(m.NumNodes())
	b := (a + 1 + rng.Intn(m.NumNodes()-1)) % m.NumNodes()
	return Addition{A: m.Node(fiber.NodeID(a)).Key(), B: m.Node(fiber.NodeID(b)).Key()}
}

// TestNestedCutsAtlasMonotone is the atlas half of the metamorphic
// properties: for 50 nested cut sets S ⊂ S', no latency-atlas distance
// under S' is shorter than under S, and after each of 30 single
// open-access builds no distance is longer than in the baseline atlas.
// An unreachable pair reads +Inf, so a pair cut off stays cut off.
func TestNestedCutsAtlasMonotone(t *testing.T) {
	eng := newEngine(t, 0)
	m := eng.snap.res.Map
	rng := rand.New(rand.NewSource(26))
	ctx := context.Background()
	atlas := func(sc Scenario) *latency.Atlas { return scenarioAtlas(t, eng, sc) }
	// noShorter fails when any distance of hi is below lo's.
	noShorter := func(label string, lo, hi *latency.Atlas) {
		t.Helper()
		for i := 0; i < lo.NumSources(); i++ {
			rl, rh := lo.Row(i), hi.Row(i)
			for v := range rl {
				if rh[v] < rl[v] {
					t.Fatalf("%s: distance %v -> %d falls from %v to %v", label, lo.Source(i), v, rl[v], rh[v])
				}
			}
		}
	}
	for i := 0; i < 50; i++ {
		cut, k := nestedCuts(rng, m)
		noShorter(fmt.Sprintf("cuts %v then %v", cut[:k], cut), atlas(Scenario{CutConduits: cut[:k]}), atlas(Scenario{CutConduits: cut}))
	}
	base, err := eng.LatencyAtlas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ad := openAddition(rng, m)
		noShorter(fmt.Sprintf("build %s–%s", ad.A, ad.B), atlas(Scenario{Additions: []Addition{ad}}), base)
	}
}
