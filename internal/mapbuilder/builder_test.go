package mapbuilder

import (
	"context"
	"testing"

	"intertubes/internal/atlas"
	"intertubes/internal/graph"
)

// buildOnce caches one default build across tests in this package —
// the build is deterministic, so sharing it is safe.
var cachedResult *Result

func build(t *testing.T) *Result {
	t.Helper()
	if cachedResult == nil {
		cachedResult = Build(context.Background(), Options{Seed: 42})
	}
	return cachedResult
}

func TestBuildHeadlineShape(t *testing.T) {
	res := build(t)
	s := res.Map.Stats()
	// Scale: same order of magnitude as the paper's 273 nodes, 2411
	// links, 542 conduits (see EXPERIMENTS.md for the comparison).
	if s.Nodes < 150 || s.Nodes > 260 {
		t.Errorf("nodes = %d", s.Nodes)
	}
	if s.Links < 1200 || s.Links > 3200 {
		t.Errorf("links = %d", s.Links)
	}
	if s.Conduits < 250 || s.Conduits > 450 {
		t.Errorf("conduits = %d", s.Conduits)
	}
	if s.ISPs != 20 {
		t.Errorf("ISPs = %d, want the paper's 20", s.ISPs)
	}
	// Sharing distribution shape (paper: 89.67% >=2, 63.28% >=3,
	// 53.50% >=4).
	ge2 := float64(s.SharedByGE2) / float64(s.Conduits)
	ge3 := float64(s.SharedByGE3) / float64(s.Conduits)
	ge4 := float64(s.SharedByGE4) / float64(s.Conduits)
	if ge2 < 0.80 || ge2 > 0.97 {
		t.Errorf("share>=2 = %.3f, want ~0.90", ge2)
	}
	if ge3 < 0.55 || ge3 > 0.85 {
		t.Errorf("share>=3 = %.3f, want ~0.63-0.78", ge3)
	}
	if ge4 < 0.45 || ge4 > 0.75 {
		t.Errorf("share>=4 = %.3f, want ~0.54-0.65", ge4)
	}
	if ge2 <= ge3 || ge3 <= ge4 {
		t.Error("sharing CDF must be decreasing")
	}
	// A small set of mega-shared chokepoint conduits must exist
	// (paper: 12 conduits shared by >17 of 20; max observed 19).
	if s.MaxSharing < 16 || s.MaxSharing > 20 {
		t.Errorf("max sharing = %d, want ~19", s.MaxSharing)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(context.Background(), Options{Seed: 7})
	b := Build(context.Background(), Options{Seed: 7})
	sa, sb := a.Map.Stats(), b.Map.Stats()
	if sa != sb {
		t.Fatalf("same seed gave different maps: %+v vs %+v", sa, sb)
	}
	for i := range a.Map.Conduits {
		ca, cb := a.Map.Conduits[i], b.Map.Conduits[i]
		if ca.A != cb.A || ca.B != cb.B || len(ca.Tenants) != len(cb.Tenants) {
			t.Fatalf("conduit %d differs", i)
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	a := Build(context.Background(), Options{Seed: 7})
	b := Build(context.Background(), Options{Seed: 8})
	if a.Map.Stats() == b.Map.Stats() {
		t.Error("different seeds should give different maps (statistically certain)")
	}
}

func TestTable1ShapePerISP(t *testing.T) {
	res := build(t)
	counts := make(map[string]ISPCounts, len(res.Report.PerISP))
	for _, c := range res.Report.PerISP {
		counts[c.Name] = c
	}
	if len(counts) != 20 {
		t.Fatalf("per-ISP rows = %d", len(counts))
	}
	// Table 1 ordering relations that must hold: the two near-national
	// networks dominate.
	big := []string{"Level 3", "EarthLink"}
	for _, name := range big {
		for _, other := range []string{"AT&T", "Comcast", "Suddenlink", "Integra", "NTT", "Deutsche Telekom"} {
			if counts[name].Links <= counts[other].Links {
				t.Errorf("%s links (%d) should exceed %s links (%d)",
					name, counts[name].Links, other, counts[other].Links)
			}
		}
	}
	for _, c := range res.Report.PerISP {
		if c.Links == 0 || c.Nodes == 0 {
			t.Errorf("%s has an empty footprint", c.Name)
		}
	}
}

func TestStep2ValidationRate(t *testing.T) {
	res := build(t)
	r := res.Report
	if r.Step2Checked == 0 {
		t.Fatal("step 2 checked nothing")
	}
	rate := float64(r.Step2Validated) / float64(r.Step2Checked)
	// The corpus has 90% coverage and 90% tenant recall, so most but
	// not all links validate.
	if rate < 0.6 || rate > 0.99 {
		t.Errorf("step-2 validation rate = %.3f", rate)
	}
}

func TestStep4Alignment(t *testing.T) {
	res := build(t)
	r := res.Report
	if r.Step4Routes == 0 || r.Step4Edges == 0 {
		t.Fatal("step 4 did nothing")
	}
	if acc := r.AlignmentAccuracy(); acc < 0.7 {
		t.Errorf("alignment accuracy = %.3f, too low for the default corpus", acc)
	}
	if r.Step4EdgesCorrect > r.Step4Edges {
		t.Error("correct > total")
	}
}

func TestHiddenTenancies(t *testing.T) {
	res := build(t)
	if res.Report.HiddenTenancies == 0 {
		t.Fatal("expected hidden tenancies from unmapped providers")
	}
	// Unmapped providers never appear as published tenants.
	for _, p := range Profiles() {
		if p.Mapped() {
			continue
		}
		if got := res.Map.ConduitsOf(p.Name); len(got) != 0 {
			t.Errorf("unmapped %s has published conduits %v", p.Name, got)
		}
	}
	// But they appear as hidden tenants somewhere.
	found := false
	for i := range res.Map.Conduits {
		for _, h := range res.Map.Conduits[i].Hidden {
			if h == "SoftLayer" {
				found = true
			}
		}
	}
	if !found {
		t.Error("SoftLayer should be a hidden tenant somewhere")
	}
}

func TestTruthCoversAllProviders(t *testing.T) {
	res := build(t)
	for _, p := range Profiles() {
		fp, ok := res.Truth[p.Name]
		if !ok || len(fp.Edges) == 0 {
			t.Errorf("no ground truth for %s", p.Name)
		}
		if len(fp.POPs) == 0 {
			t.Errorf("no POPs for %s", p.Name)
		}
	}
}

func TestConduitForCorridor(t *testing.T) {
	res := build(t)
	// Every published conduit must be findable through its corridor.
	for i := range res.Map.Conduits {
		c := &res.Map.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		cid, ok := conduitFor(res.Map, res.Atlas, c.Corridor)
		if !ok || cid != c.ID {
			t.Fatalf("corridor %d: got %v,%v want %v", c.Corridor, cid, ok, c.ID)
		}
	}
	if _, ok := conduitFor(res.Map, res.Atlas, -99); ok {
		t.Error("bogus corridor should not resolve")
	}
}

func TestRegionalBiasShapesFootprints(t *testing.T) {
	res := build(t)
	a := res.Atlas
	// Integra is biased to the northwest: most of its nodes should be
	// west of -100 longitude.
	west, east := 0, 0
	for _, ci := range res.Truth["Integra"].Nodes(a) {
		if a.Cities[ci].Loc.Lon < -100 {
			west++
		} else {
			east++
		}
	}
	if west <= east {
		t.Errorf("Integra: west=%d east=%d; bias not working", west, east)
	}
	// Suddenlink should live mostly in the south-central states.
	southCentral := map[string]bool{"TX": true, "LA": true, "AR": true, "OK": true,
		"MO": true, "MS": true, "WV": true, "NC": true, "AZ": true, "NM": true, "TN": true, "KS": true}
	in, out := 0, 0
	for _, ci := range res.Truth["Suddenlink"].POPs {
		if southCentral[a.Cities[ci].State] {
			in++
		} else {
			out++
		}
	}
	if in <= out {
		t.Errorf("Suddenlink POPs: in-region=%d out=%d", in, out)
	}
}

func TestSmallInternationalsRideSharedTrunks(t *testing.T) {
	// Figure 7's right-hand side: Deutsche Telekom, NTT & co. use
	// conduits that are on average much more shared than Suddenlink's.
	res := build(t)
	avgSharing := func(name string) float64 {
		cids := res.Map.ConduitsOf(name)
		if len(cids) == 0 {
			return 0
		}
		total := 0
		for _, cid := range cids {
			total += res.Map.Conduit(cid).SharingDegree()
		}
		return float64(total) / float64(len(cids))
	}
	dt := avgSharing("Deutsche Telekom")
	ntt := avgSharing("NTT")
	sudden := avgSharing("Suddenlink")
	if dt <= sudden || ntt <= sudden {
		t.Errorf("avg sharing: DT=%.2f NTT=%.2f Suddenlink=%.2f; paper ordering violated", dt, ntt, sudden)
	}
}

func TestFootprintGeneration(t *testing.T) {
	a := atlas.Load()
	g := a.Graph()
	var prof Profile
	for _, p := range Profiles() {
		if p.Name == "Verizon" {
			prof = p
		}
	}
	fp := GenerateFootprint(a, g, prof, 1, nil)
	if len(fp.Edges) == 0 || len(fp.Routes) == 0 {
		t.Fatal("empty footprint")
	}
	// The footprint must be connected: every edge reachable from the
	// first POP using only footprint edges.
	wf := func(eid int) float64 {
		if !fp.Edges[eid] {
			return 1e18
		}
		return 1
	}
	dist := g.ShortestDistances(graph.NewWorkspace(), fp.POPs[0], wf, nil)
	for eid := range fp.Edges {
		e := g.Edge(eid)
		if dist[e.U] >= 1e17 && dist[e.V] >= 1e17 {
			t.Errorf("edge %d disconnected from backbone", eid)
		}
	}
	// POPs are distinct.
	seen := map[int]bool{}
	for _, p := range fp.POPs {
		if seen[p] {
			t.Errorf("duplicate POP %d", p)
		}
		seen[p] = true
	}
}

func TestOccupancyDiscountMonotone(t *testing.T) {
	prev := occupancyDiscount(0)
	if prev != 1.0 {
		t.Errorf("empty conduit should have no discount, got %v", prev)
	}
	for n := 1; n <= 25; n++ {
		d := occupancyDiscount(n)
		if d >= prev {
			t.Fatalf("discount must decrease: d(%d)=%v >= d(%d)=%v", n, d, n-1, prev)
		}
		if d < 0.3 {
			t.Fatalf("discount floor breached: %v", d)
		}
		prev = d
	}
}

func TestProfileLookups(t *testing.T) {
	names := MappedNames()
	if len(names) != 20 {
		t.Errorf("mapped names = %d, want 20", len(names))
	}
	for _, n := range names {
		if n == "SoftLayer" || n == "MFN" {
			t.Errorf("unmapped provider %s in mapped list", n)
		}
	}
}

func TestBuildWithSubsetProfiles(t *testing.T) {
	subset := []Profile{
		{Name: "Alpha", Tier: Tier1, Geocoded: true, POPTarget: 10, Redundancy: 0.2, JitterAmp: 0.2},
		{Name: "Beta", Tier: Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.2, JitterAmp: 0.2},
		{Name: "Ghost", Tier: Unmapped, POPTarget: 5, JitterAmp: 0.2},
	}
	res := BuildWithProfiles(context.Background(), Options{Seed: 3}, subset)
	s := res.Map.Stats()
	if s.ISPs != 2 {
		t.Errorf("published ISPs = %d, want 2", s.ISPs)
	}
	if len(res.Truth) != 3 {
		t.Errorf("truth providers = %d, want 3", len(res.Truth))
	}
}

func TestOccupancyDiscountAblation(t *testing.T) {
	with := build(t).Map.Stats()
	without := Build(context.Background(), Options{Seed: 42, DisableOccupancyDiscount: true}).Map.Stats()
	// The discount concentrates tenancy: without it the heavy tail of
	// mega-shared conduits shrinks.
	if without.MaxSharing > with.MaxSharing {
		t.Errorf("max sharing without discount (%d) exceeds with (%d)",
			without.MaxSharing, with.MaxSharing)
	}
	withTail := with.SharedByGT17
	withoutTail := without.SharedByGT17
	if withoutTail > withTail {
		t.Errorf("tail without discount (%d) exceeds with (%d)", withoutTail, withTail)
	}
}
