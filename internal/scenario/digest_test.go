package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"intertubes/internal/fiber"
)

// digest_test.go pins the engine's outputs byte for byte. Each digest
// is the sha256 over the json.Marshal bytes of every Result in a fixed
// scenario family, concatenated in order; the values were recorded
// before the capacity stage moved onto the flow-limited Dinic kernel
// and the touched-provider stages onto dense tenancy rows, and every
// later kernel or stage rewrite must reproduce them exactly.

// digestFamily is one pinned scenario family and its digest.
type digestFamily struct {
	name string
	scs  []Scenario
	want string
}

// digestFamilies returns the scenario families, in digest order.
func digestFamilies(t *testing.T) []digestFamily {
	t.Helper()
	res, mx := build(t)
	m := res.Map

	var cuts, removals, adds, presetScs []Scenario
	for cid := 0; cid < m.NumConduits(); cid++ {
		cuts = append(cuts, Scenario{CutConduits: []fiber.ConduitID{fiber.ConduitID(cid)}})
	}
	for _, isp := range mx.ISPs {
		removals = append(removals, Scenario{RemoveISPs: []string{isp}})
	}
	n := m.NumNodes()
	for i := 0; i < n; i += 4 {
		a, b := m.Node(fiber.NodeID(i)).Key(), m.Node(fiber.NodeID((i+n/2)%n)).Key()
		adds = append(adds, Scenario{Additions: []Addition{{A: a, B: b}}})
	}
	for _, name := range PresetNames() {
		presetScs = append(presetScs, Scenario{Preset: name})
	}
	return []digestFamily{
		{"single-cuts", cuts, "7da2e8048f2c50d664f3474bcfcf8cd877b4d650e59432697557a6a24d09068c"},
		{"isp-removals", removals, "54986f364fee405d98db3a4190ba6c0df5ea9cb06029cf5be13357df858faaca"},
		{"additions", adds, "438ccc2326abc22e36d5fbb3d42c3619f81b8ac85395ef6e0885d2043f6674f1"},
		{"presets", presetScs, "31a60631e8dff1c5117bd6258115fef447edbc02e47cd55153f0dd71d869dd7b"},
	}
}

func TestResultDigests(t *testing.T) {
	families := digestFamilies(t)
	sizes := map[string]int{"single-cuts": 382, "isp-removals": 20, "additions": 64, "presets": 5}
	eng := newEngine(t, 0)
	for _, f := range families {
		if len(f.scs) != sizes[f.name] {
			t.Fatalf("%s: %d scenarios, want %d", f.name, len(f.scs), sizes[f.name])
		}
		h := sha256.New()
		for _, sc := range f.scs {
			r, err := eng.Evaluate(context.Background(), sc)
			if err != nil {
				t.Fatalf("%s: evaluate %+v: %v", f.name, sc, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != f.want {
			t.Errorf("%s digest = %s, want %s", f.name, got, f.want)
		}
	}
}

// namedScenario is one scenario of a pinned list.
type namedScenario struct {
	name string
	sc   Scenario
}

// latencyTrafficScenarios lists scenarios that run the opt-in latency
// and traffic stages at small overrides, on the seed-42 test map. They
// cover where a perturbed view and a materialized map could disagree:
// cut and removed tenancy, an addition between two major cities that
// no conduit joins (an id past the base map, following corridor -1),
// a second addition on that pair, which merges into the first, and all
// of it at once.
func latencyTrafficScenarios() []namedScenario {
	small := Overrides{LatencyMaxPairs: 60, Probes: 2000}
	both := func(sc Scenario) Scenario {
		sc.IncludeLatency, sc.IncludeTraffic, sc.Overrides = true, true, small
		return sc
	}
	const sea, pdx = "Seattle,WA", "Portland,OR"
	return []namedScenario{
		{"cut-most-shared-2", both(Scenario{CutMostShared: 2})},
		{"remove-level3", both(Scenario{RemoveISPs: []string{"Level 3"}})},
		{"add-sea-pdx", both(Scenario{Additions: []Addition{{A: sea, B: pdx}}})},
		{"add-sea-pdx-twice", both(Scenario{Additions: []Addition{
			{A: sea, B: pdx, Tenants: []string{"Zayo"}},
			{A: pdx, B: sea, Tenants: []string{"Cogent", "Sprint"}},
		}})},
		{"cut-remove-add", both(Scenario{
			CutMostShared: 3,
			RemoveISPs:    []string{"AT&T"},
			Additions:     []Addition{{A: sea, B: pdx, Tenants: []string{"AT&T", "Level 3"}}},
		})},
		{"latency-only", Scenario{CutMostShared: 2, IncludeLatency: true, Overrides: Overrides{LatencyMaxPairs: 60}}},
		{"traffic-only", Scenario{CutMostShared: 2, IncludeTraffic: true, Overrides: Overrides{Probes: 2000}}},
	}
}

// TestLatencyTrafficDigests pins the Result bytes of every
// latencyTrafficScenarios entry at one worker and several, recorded
// while both stages still ran on a materialized copy of the perturbed
// map.
func TestLatencyTrafficDigests(t *testing.T) {
	want := map[string]string{
		"cut-most-shared-2": "317d424438499603359d1c645aeb33d8217c8ce6c71c6a0dcfa2b9efeb3db80b",
		"remove-level3":     "bce0ce3fbec59d933c0cc99f05cf34f829af21c512f716329da3f7aff9038496",
		"add-sea-pdx":       "830da72113c0a7c68b32ac13c65911b605b7c4c67f4125ba36d5c672de853c6f",
		"add-sea-pdx-twice": "78590663e955e1a5c1c694c84c7b45d9ede68e09d84b8d3730763e5b9c1f9c87",
		"cut-remove-add":    "b84cb2bc691725ea8bbe8bc101fcd2cdea39c6618e0ba8183b386d8b9e8c418d",
		"latency-only":      "4ff1df8042fd871fd4531a0e1b01d09afec2c9b4d5a785e3dd70333f9c96dc0f",
		"traffic-only":      "03ff7e958f6750c61578aeeacc963501ccf3e7124b0daa84f9ea9db4d522162a",
	}
	res, _ := build(t)
	sea, _ := res.Map.NodeByKey("Seattle,WA")
	pdx, _ := res.Map.NodeByKey("Portland,OR")
	if got := res.Map.ConduitsBetween(sea, pdx); len(got) != 0 {
		t.Fatalf("Seattle-Portland already has conduits %v; the additions would not add one", got)
	}
	for _, workers := range []int{0, 1, 4} {
		eng := newEngine(t, workers)
		for _, ns := range latencyTrafficScenarios() {
			r, err := eng.Evaluate(context.Background(), ns.sc)
			if err != nil {
				t.Fatalf("%s: %v", ns.name, err)
			}
			if r.Latency == nil && ns.sc.IncludeLatency || r.Traffic == nil && ns.sc.IncludeTraffic {
				t.Fatalf("%s: a requested stage left no delta", ns.name)
			}
			sum := sha256.Sum256(mustJSON(t, r))
			if got := hex.EncodeToString(sum[:]); got != want[ns.name] {
				t.Errorf("workers %d: %s digest = %s, want %s", workers, ns.name, got, want[ns.name])
			}
		}
	}
}

func TestHeatmapDigest(t *testing.T) {
	eng := newEngine(t, 0)
	plan, baseline, err := eng.PlanGrid(GridSpec{CellKm: 300, RadiiKm: []float64{100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total() != 210 {
		t.Fatalf("plan has %d cells, want 210", plan.Total())
	}
	scs := make([]Scenario, len(plan.Cells))
	for i, c := range plan.Cells {
		scs[i] = c.Scenario()
	}
	outs := Sweep(context.Background(), eng, scs, 0)
	cells := make([]CellOutcome, len(outs))
	for i, o := range outs {
		cells[i] = ReduceCell(plan.Cells[i], o)
	}
	gj, err := BuildHeatmap(plan.Geom(), baseline, cells).GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(gj)
	const want = "e2172a8c814085072e2d21ef9b526bcbad6dee19573631d171e834b2fadfa7f6"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("heatmap GeoJSON digest = %s, want %s", got, want)
	}
	// The cells are unchanged since the baseline was a version counter:
	// with its identity line put back, the artifact hashes to the pin
	// it had then.
	if got := asVersionOne(t, gj, baseline); got != "5a94680c25d78906a0523f5963367632cb05c7109ffc6332102a4da328968163" {
		t.Errorf("heatmap GeoJSON with the version-1 identity line = %s, want the old pin", got)
	}
}

// asVersionOne replaces the artifact's one baseline digest line with
// the version-counter line older artifacts carried and returns the
// sha256 of the result.
func asVersionOne(t *testing.T, gj []byte, baseline string) string {
	t.Helper()
	line := `"baseline": "` + baseline + `"`
	if n := bytes.Count(gj, []byte(line)); n != 1 {
		t.Fatalf("artifact holds %d baseline lines, want 1", n)
	}
	sum := sha256.Sum256(bytes.Replace(gj, []byte(line), []byte(`"baselineVersion": 1`), 1))
	return hex.EncodeToString(sum[:])
}

// TestCapacityTablesIntegral pins the premise the flow-limited kernel's
// byte-identity rests on: every capacity the capacity stage stages is
// a whole number of Gbps below 2^53, so every residual, bottleneck and
// running flow total is exact in float64 and any augmenting order
// returns the same max flow.
func TestCapacityTablesIntegral(t *testing.T) {
	const exact = 1 << 53
	integral := func(c float64) bool {
		return c >= 0 && c < exact && c == math.Trunc(c)
	}
	for _, km := range []float64{0.5, 37.25, 640, 1999.9, 2000.1, 3100, 4800.75} {
		for tenants := 0; tenants <= 64; tenants++ {
			for a := fiber.NodeID(0); a < 4; a++ {
				if c := fiber.CapacityGbps(a, a+7, km, tenants); !integral(c) {
					t.Fatalf("CapacityGbps(%d, %d, %v, %d) = %v, not an exact integer", a, a+7, km, tenants, c)
				}
			}
		}
	}

	eng := newEngine(t, 0)
	cb := eng.snap.capacity()
	for cid, c := range cb.caps {
		if !integral(c) {
			t.Fatalf("baseline capacity of conduit %d = %v, not an exact integer", cid, c)
		}
	}
	plan, _, err := eng.PlanGrid(GridSpec{CellKm: 300, RadiiKm: []float64{100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]Scenario, len(plan.Cells))
	for i, c := range plan.Cells {
		grid[i] = c.Scenario()
	}
	families := append(digestFamilies(t), digestFamily{name: "heatmap-cells", scs: grid})
	for _, f := range families {
		for _, sc := range f.scs {
			sc, err := Resolve(sc)
			if err != nil {
				t.Fatal(err)
			}
			ov, _, err := eng.buildOverlay(sc, eng.keptISPs(sc))
			if err != nil {
				t.Fatal(err)
			}
			final := ov.Final()
			for cid, c := range capacityTable(final, nil) {
				if !integral(c) {
					t.Fatalf("%s %+v: capacity of conduit %d = %v, not an exact integer", f.name, sc, cid, c)
				}
			}
		}
	}
}
