package fiber

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"intertubes/internal/geo"
)

// overlay_test.go diffs the copy-on-write Overlay against the
// mutation path it models: every View answer from Plus/Final must
// equal the same question asked of a map built with Clone + RemoveISP
// + EnsureConduit/AddTenant + ClearTenants.

// overlayTestMap builds a small map with parallel conduits, corridor
// and corridor-less routes, and a handful of providers.
func overlayTestMap(t *testing.T) *Map {
	t.Helper()
	m := NewMap()
	locs := []geo.Point{
		{Lat: 40, Lon: -100}, {Lat: 41, Lon: -99}, {Lat: 39, Lon: -98},
		{Lat: 42, Lon: -97}, {Lat: 38, Lon: -96}, {Lat: 40.5, Lon: -95},
	}
	for i, loc := range locs {
		m.AddNode(fmt.Sprintf("City%d", i), "ST", loc, 1000*(i+1), -1)
	}
	type spec struct {
		a, b     NodeID
		corridor int
		tenants  []string
	}
	specs := []spec{
		{0, 1, 7, []string{"Alpha", "Beta", "Gamma"}},
		{0, 1, -1, []string{"Alpha"}}, // corridor-less parallel: addition merge target
		{1, 2, 3, []string{"Beta", "Gamma"}},
		{2, 3, -1, []string{"Alpha", "Delta"}},
		{3, 4, 2, []string{"Gamma"}},
		{0, 2, -1, []string{"Beta"}},
		{1, 3, 5, []string{"Delta", "Epsilon"}},
		{4, 5, -1, nil}, // dark conduit, no tenants
	}
	for _, s := range specs {
		path := geo.Polyline{m.Node(s.a).Loc, m.Node(s.b).Loc}
		cid := m.EnsureConduit(s.a, s.b, s.corridor, path)
		for _, isp := range s.tenants {
			m.AddTenant(cid, isp)
		}
	}
	return m
}

// mutate replays p through the mutation primitives (the engine's
// order), returning the plus map (cuts lit) and final map (cuts dark).
func mutate(m *Map, p Perturbation) (plus, final *Map) {
	plus = m.Clone()
	for _, isp := range p.RemoveISPs {
		plus.RemoveISP(isp)
	}
	for _, ad := range p.Additions {
		path := geo.Polyline{plus.Nodes[ad.A].Loc, plus.Nodes[ad.B].Loc}
		cid := plus.EnsureConduit(ad.A, ad.B, -1, path)
		for _, isp := range ad.Tenants {
			plus.AddTenant(cid, isp)
		}
	}
	final = plus.Clone()
	for _, cid := range p.Cuts {
		final.ClearTenants(cid)
	}
	return plus, final
}

// diffViews asserts v answers every View question exactly like want.
func diffViews(t *testing.T, label string, v View, want *Map, isps []string) {
	t.Helper()
	if v.NumNodes() != want.NumNodes() || v.NumConduits() != want.NumConduits() {
		t.Fatalf("%s: dims (%d,%d) != (%d,%d)", label,
			v.NumNodes(), v.NumConduits(), want.NumNodes(), want.NumConduits())
	}
	for cid := ConduitID(0); int(cid) < want.NumConduits(); cid++ {
		ga, gb := v.ConduitEnds(cid)
		wa, wb := want.ConduitEnds(cid)
		if ga != wa || gb != wb {
			t.Errorf("%s: conduit %d ends (%d,%d) != (%d,%d)", label, cid, ga, gb, wa, wb)
		}
		if v.ConduitLengthKm(cid) != want.ConduitLengthKm(cid) {
			t.Errorf("%s: conduit %d length mismatch", label, cid)
		}
		gt, wt := v.Tenants(cid), want.Tenants(cid)
		if len(gt) != len(wt) || (len(wt) > 0 && !reflect.DeepEqual(gt, wt)) {
			t.Errorf("%s: conduit %d tenants %v != %v", label, cid, gt, wt)
		}
		for _, isp := range isps {
			if v.HasTenant(cid, isp) != want.HasTenant(cid, isp) {
				t.Errorf("%s: conduit %d HasTenant(%s) mismatch", label, cid, isp)
			}
		}
	}
	for _, isp := range isps {
		if got, want := v.NodesOf(isp), want.NodesOf(isp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NodesOf(%s) = %v, want %v", label, isp, got, want)
		}
	}
	if got, wantS := v.Stats(), want.Stats(); got != wantS {
		t.Errorf("%s: Stats %+v != %+v", label, got, wantS)
	}
}

func allISPs(m *Map, extra ...string) []string {
	out := append(m.ISPs(), extra...)
	return out
}

func TestOverlayMatchesMutation(t *testing.T) {
	m := overlayTestMap(t)
	cases := []struct {
		name string
		p    Perturbation
	}{
		{"zero", Perturbation{}},
		{"cut-only", Perturbation{Cuts: []ConduitID{0, 3}}},
		{"cut-duplicates", Perturbation{Cuts: []ConduitID{2, 2, 5}}},
		{"remove-only", Perturbation{RemoveISPs: []string{"Alpha"}}},
		{"remove-two", Perturbation{RemoveISPs: []string{"Beta", "Delta"}}},
		{"remove-unknown", Perturbation{RemoveISPs: []string{"Nobody"}}},
		{"add-merge", Perturbation{Additions: []OverlayAddition{
			{A: 0, B: 1, Tenants: []string{"Zeta"}}, // merges into corridor -1 conduit 1
		}}},
		{"add-virtual", Perturbation{Additions: []OverlayAddition{
			{A: 0, B: 4, Tenants: []string{"Alpha", "Zeta"}},
		}}},
		{"add-virtual-then-merge", Perturbation{Additions: []OverlayAddition{
			{A: 0, B: 4, Tenants: []string{"Alpha"}},
			{A: 4, B: 0, Tenants: []string{"Beta"}}, // merges into the virtual above
		}}},
		{"readd-removed", Perturbation{
			RemoveISPs: []string{"Alpha"},
			Additions:  []OverlayAddition{{A: 2, B: 3, Tenants: []string{"Alpha"}}},
		}},
		{"cut-merged-addition", Perturbation{
			Cuts:      []ConduitID{3},
			Additions: []OverlayAddition{{A: 2, B: 3, Tenants: []string{"Zeta"}}},
		}},
		{"everything", Perturbation{
			Cuts:       []ConduitID{0, 2, 6},
			RemoveISPs: []string{"Gamma"},
			Additions: []OverlayAddition{
				{A: 1, B: 4, Tenants: []string{"Alpha", "Zeta"}},
				{A: 0, B: 1, Tenants: []string{"Gamma"}}, // re-adds removed on merge target
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ov, err := NewOverlay(m, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			plus, final := mutate(m, tc.p)
			isps := allISPs(m, "Zeta", "Nobody")
			diffViews(t, "plus", ov.Plus(), plus, isps)
			diffViews(t, "final", ov.Final(), final, isps)

			// LinksRemoved matches what sequential RemoveISP would count.
			wantRemoved := 0
			probe := m.Clone()
			for _, isp := range tc.p.RemoveISPs {
				wantRemoved += probe.RemoveISP(isp)
			}
			if ov.LinksRemoved() != wantRemoved {
				t.Errorf("LinksRemoved = %d, want %d", ov.LinksRemoved(), wantRemoved)
			}
		})
	}
}

func TestOverlayRandomized(t *testing.T) {
	m := overlayTestMap(t)
	isps := allISPs(m, "Zeta", "Eta")
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 150; trial++ {
		var p Perturbation
		for i := 0; i < rng.Intn(4); i++ {
			p.Cuts = append(p.Cuts, ConduitID(rng.Intn(m.NumConduits())))
		}
		for i := 0; i < rng.Intn(3); i++ {
			p.RemoveISPs = append(p.RemoveISPs, isps[rng.Intn(len(isps))])
		}
		for i := 0; i < rng.Intn(3); i++ {
			a := NodeID(rng.Intn(m.NumNodes()))
			b := NodeID(rng.Intn(m.NumNodes()))
			if a == b {
				continue
			}
			var ts []string
			for j := 0; j <= rng.Intn(2); j++ {
				ts = append(ts, isps[rng.Intn(len(isps))])
			}
			p.Additions = append(p.Additions, OverlayAddition{A: a, B: b, Tenants: dedupe(ts)})
		}
		ov, err := NewOverlay(m, p)
		if err != nil {
			t.Fatal(err)
		}
		plus, final := mutate(m, p)
		diffViews(t, fmt.Sprintf("trial%d-plus", trial), ov.Plus(), plus, isps)
		diffViews(t, fmt.Sprintf("trial%d-final", trial), ov.Final(), final, isps)
	}
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func TestOverlayErrors(t *testing.T) {
	m := overlayTestMap(t)
	if _, err := NewOverlay(m, Perturbation{Cuts: []ConduitID{ConduitID(m.NumConduits())}}); err == nil {
		t.Error("out-of-range cut accepted")
	}
	if _, err := NewOverlay(m, Perturbation{Additions: []OverlayAddition{{A: 2, B: 2}}}); err == nil {
		t.Error("self-loop addition accepted")
	}
}
