package traceroute

import (
	"context"
	"math/rand"
	"testing"

	"intertubes/internal/atlas"
	"intertubes/internal/mapbuilder"
)

var (
	cachedRes  *mapbuilder.Result
	cachedCamp *Campaign
)

func campaign(t *testing.T) (*mapbuilder.Result, *Campaign) {
	t.Helper()
	if cachedCamp == nil {
		cachedRes = mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
		cachedCamp, _ = Run(context.Background(), cachedRes, Options{N: 20000, Seed: 99})
	}
	return cachedRes, cachedCamp
}

func TestNamerRoundTrip(t *testing.T) {
	a := atlas.Load()
	n := NewNamer(a)
	for i := range a.Cities {
		code := n.Code(i)
		if code == "" {
			t.Fatalf("city %d has empty code", i)
		}
		got, ok := n.CityForCode(code)
		if !ok || got != i {
			t.Fatalf("code %q decodes to %d,%v want %d", code, got, ok, i)
		}
	}
}

func TestNamerCodesUnique(t *testing.T) {
	a := atlas.Load()
	n := NewNamer(a)
	seen := map[string]int{}
	for i := range a.Cities {
		if j, dup := seen[n.Code(i)]; dup {
			t.Errorf("cities %d and %d share code %q", i, j, n.Code(i))
		}
		seen[n.Code(i)] = i
	}
}

func TestHopNameDecode(t *testing.T) {
	a := atlas.Load()
	n := NewNamer(a)
	dal := a.MustCity("Dallas,TX")
	name := n.HopName(3, dal, "Sprint")
	city, isp, ok := n.DecodeHopName(name)
	if !ok || city != dal || isp != "Sprint" {
		t.Errorf("decode(%q) = %d,%q,%v", name, city, isp, ok)
	}
	if _, _, ok := n.DecodeHopName("garbage"); ok {
		t.Error("garbage should not decode")
	}
	if _, _, ok := n.DecodeHopName("ae-1.nowhere.level3.net"); ok {
		t.Error("unknown city code should not decode")
	}
}

func TestISPForDomain(t *testing.T) {
	if isp, ok := ISPForDomain("ae-1.dalltx.level3.net"); !ok || isp != "Level 3" {
		t.Errorf("got %q,%v", isp, ok)
	}
	if _, ok := ISPForDomain("ae-1.dalltx.example.org"); ok {
		t.Error("unknown domain resolved")
	}
}

func TestCampaignBasics(t *testing.T) {
	_, c := campaign(t)
	if c.Total < 10000 {
		t.Fatalf("total = %d; too many rejected traces", c.Total)
	}
	if len(c.ConduitProbes) < 100 {
		t.Errorf("only %d conduits carried probes", len(c.ConduitProbes))
	}
	if len(c.Samples) == 0 || len(c.Samples) > c.Opts.RetainTraces {
		t.Errorf("samples = %d", len(c.Samples))
	}
	for _, tr := range c.Samples {
		if len(tr.Hops) < 1 {
			t.Error("trace with no hops")
		}
		if tr.ISP == "" {
			t.Error("trace without ISP")
		}
		// RTT must be non-decreasing-ish along the path (jitter is
		// bounded by 0.4ms; distances dominate).
		for i := 1; i < len(tr.Hops); i++ {
			if tr.Hops[i].RTTms < tr.Hops[i-1].RTTms-0.5 {
				t.Errorf("RTT went sharply backwards: %v", tr.Hops)
			}
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	res, _ := campaign(t)
	a, _ := Run(context.Background(), res, Options{N: 3000, Seed: 5})
	b, _ := Run(context.Background(), res, Options{N: 3000, Seed: 5})
	if a.Total != b.Total || a.Unattributed != b.Unattributed {
		t.Fatalf("campaigns differ: %d/%d vs %d/%d", a.Total, a.Unattributed, b.Total, b.Unattributed)
	}
	for cid, da := range a.ConduitProbes {
		db := b.ConduitProbes[cid]
		if db == nil || *da != *db {
			t.Fatalf("conduit %d counts differ", cid)
		}
	}
}

func TestAttributionAccuracy(t *testing.T) {
	_, c := campaign(t)
	if acc := c.AttributionAccuracy(); acc < 0.85 {
		t.Errorf("attribution accuracy = %.3f; overlay is broken", acc)
	}
	if c.AttributionChecked == 0 {
		t.Error("nothing was checked")
	}
}

func TestTopConduitsTables2And3(t *testing.T) {
	_, c := campaign(t)
	for _, dir := range []bool{true, false} {
		top := c.TopConduits(20, dir)
		if len(top) != 20 {
			t.Fatalf("top conduits = %d", len(top))
		}
		for i := 1; i < len(top); i++ {
			if top[i].Probes > top[i-1].Probes {
				t.Error("not sorted by probes")
			}
		}
		for _, r := range top {
			if r.A == "" || r.B == "" || r.Probes == 0 {
				t.Errorf("bad row %+v", r)
			}
		}
	}
}

func TestTopISPsTable4(t *testing.T) {
	_, c := campaign(t)
	top := c.TopISPs(10)
	if len(top) != 10 {
		t.Fatalf("top ISPs = %d", len(top))
	}
	// The paper's Table 4: Level 3's infrastructure is the most widely
	// used, by a wide margin over most others.
	if top[0].ISP != "Level 3" && top[0].ISP != "EarthLink" {
		t.Errorf("top ISP = %s, want a near-national backbone", top[0].ISP)
	}
	// Unmapped providers (SoftLayer, MFN) must be discoverable in the
	// ranking universe, exactly as in the paper's Table 4.
	all := c.TopISPs(1000)
	seen := map[string]bool{}
	for _, r := range all {
		seen[r.ISP] = true
	}
	if !seen["SoftLayer"] || !seen["MFN"] {
		t.Error("traceroute-only providers missing from ISP ranking")
	}
}

func TestSharingWithTrafficFigure9(t *testing.T) {
	_, c := campaign(t)
	pub, over := c.SharingWithTraffic()
	if len(pub) != len(over) || len(pub) == 0 {
		t.Fatalf("lengths: %d vs %d", len(pub), len(over))
	}
	var sp, so int
	for i := range pub {
		if over[i] < pub[i] {
			t.Fatal("overlay can only add tenants")
		}
		sp += pub[i]
		so += over[i]
	}
	if so <= sp {
		t.Error("traceroute overlay should reveal additional ISPs (Figure 9 shift)")
	}
}

func TestWestToEastClassification(t *testing.T) {
	res, c := campaign(t)
	a := res.Atlas
	sf := a.MustCity("San Francisco,CA")
	ny := a.MustCity("New York,NY")
	tr := Trace{SrcCity: sf, DstCity: ny}
	if !tr.WestToEast(c) {
		t.Error("SF->NY is west to east")
	}
	tr = Trace{SrcCity: ny, DstCity: sf}
	if tr.WestToEast(c) {
		t.Error("NY->SF is east to west")
	}
}

func TestMPLSHidesInteriorHops(t *testing.T) {
	_, c := campaign(t)
	foundTunnel := false
	for _, tr := range c.Samples {
		if tr.PeerISP != "" {
			continue // two-provider traces tunnel per segment
		}
		if tr.MPLS && len(tr.Hops) == 2 {
			foundTunnel = true
		}
		if tr.MPLS && len(tr.Hops) > 2 {
			t.Errorf("MPLS trace shows %d hops", len(tr.Hops))
		}
	}
	if !foundTunnel {
		t.Log("no MPLS tunnel in retained samples (probabilistic; not a failure)")
	}
}

func TestPeeredTraces(t *testing.T) {
	_, c := campaign(t)
	peered := 0
	for _, tr := range c.Samples {
		if tr.PeerISP == "" {
			continue
		}
		peered++
		if tr.PeerISP == tr.ISP {
			t.Error("peer must differ from the primary provider")
		}
		// Hop names must mention both providers' domains (unless rDNS
		// noise hid every hop of a segment, which is very unlikely
		// across the sample set).
		domains := map[string]bool{}
		for _, h := range tr.Hops {
			if h.Name == "" {
				continue
			}
			if isp, ok := ISPForDomain(h.Name); ok {
				domains[isp] = true
			}
		}
		if len(domains) > 2 {
			t.Errorf("trace names %d providers", len(domains))
		}
	}
	if peered == 0 {
		t.Error("no peered traces in samples; PeerProb should produce ~30%")
	}
}

func TestGravityDraw(t *testing.T) {
	g := newGravity([]float64{1, 0, 100}, []int{0, 1, 2})
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		counts[g.draw(rng)]++
	}
	if counts[2] < 9000 {
		t.Errorf("heavy city drawn %d/10000", counts[2])
	}
	if counts[1] > 100 {
		t.Errorf("zero-weight city drawn %d times", counts[1])
	}
	empty := newGravity(nil, nil)
	if empty.draw(rng) != -1 {
		t.Error("empty gravity should return -1")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.N != 200000 || o.MPLSProb != 0.25 || o.GeoNoiseProb != 0.05 || o.RetainTraces != 64 {
		t.Errorf("defaults = %+v", o)
	}
}
