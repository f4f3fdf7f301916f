package traceroute

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
)

// tally_test.go pins the dense tally's edges: a provider the hop-name
// decoder knows but ground truth lacks, the allocation budget of the
// probe kernel, and the campaign size Run accepts.

// TestOverlayDecoderOnlyProvider overlays traces naming zayo.com onto
// a map built without Zayo: the provider has a decoder index but no
// ground truth and no published tenancy, so its segments ride the lit
// conduits and score as incorrect. The counts and digest were recorded
// before the tally replaced per-attribution map updates.
func TestOverlayDecoderOnlyProvider(t *testing.T) {
	var profiles []mapbuilder.Profile
	for _, p := range mapbuilder.Profiles() {
		if p.Name != "Zayo" {
			profiles = append(profiles, p)
		}
	}
	res := mapbuilder.BuildWithProfiles(context.Background(), mapbuilder.Options{Seed: 42}, profiles)
	c, err := Run(context.Background(), res, Options{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Atlas
	routes := []struct {
		isps  []string // per hop; the last one repeats
		keys  []string
		times int
	}{
		{[]string{"Zayo"}, []string{"Seattle,WA", "Denver,CO", "Chicago,IL", "Cleveland,OH", "New York,NY"}, 3},
		{[]string{"Zayo"}, []string{"Los Angeles,CA", "Phoenix,AZ", "Dallas,TX", "Atlanta,GA", "Miami,FL"}, 2},
		{[]string{"Zayo", "Zayo", "Level 3"}, []string{"Chicago,IL", "Denver,CO", "Dallas,TX", "Atlanta,GA"}, 1},
	}
	var text strings.Builder
	for _, r := range routes {
		for k := 0; k < r.times; k++ {
			text.WriteString("traceroute to x\n")
			for i, key := range r.keys {
				isp := r.isps[min(i, len(r.isps)-1)]
				fmt.Fprintf(&text, "%2d  %s  %d.0 ms\n", i+1, c.Namer().HopName(1+(i+k)%9, a.MustCity(key), isp), 5*(i+1))
			}
			text.WriteString("\n")
		}
	}
	parsed, err := ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n := c.OverlayParsed(parsed); n != 6 {
		t.Errorf("%d traces contributed, want 6", n)
	}

	want := map[fiber.ConduitID]int64{}
	for _, cids := range []struct {
		n    int64
		cids []fiber.ConduitID
	}{
		{2, []fiber.ConduitID{22, 23, 35, 36, 37, 87, 88, 89, 90, 91, 93, 94, 95, 96, 123, 144, 259, 260, 313, 314, 315, 316, 317, 368, 369, 370, 371}},
		{3, []fiber.ConduitID{56, 57, 58, 60, 158, 170, 171, 208, 209, 210, 211, 212, 213, 214, 215, 328, 350, 351}},
		{4, []fiber.ConduitID{240, 241, 242, 243, 244, 245, 373}},
	} {
		for _, cid := range cids.cids {
			want[cid] = cids.n
		}
	}
	if !reflect.DeepEqual(c.ISPConduits["Zayo"], want) {
		t.Errorf("ISPConduits[Zayo] = %v, want %v", c.ISPConduits["Zayo"], want)
	}
	for cid, tenants := range c.InferredTenants {
		if _, counted := want[cid]; tenants["Zayo"] != counted {
			t.Errorf("conduit %d: inferred Zayo tenancy %v, probe count %d", cid, tenants["Zayo"], want[cid])
		}
	}
	for cid := range want {
		if !c.InferredTenants[cid]["Zayo"] {
			t.Errorf("conduit %d carries Zayo probes but Zayo is not an inferred tenant", cid)
		}
	}
	const digest = "718cde977c3e794cc82a6c9e397058b8d50f34c67c17731491a394a7009c3612"
	if got := campaignDigest(c); got != digest {
		t.Errorf("campaign digest %s, want %s", got, digest)
	}
}

// TestCampaignAllocsPerProbe bounds the allocations of a 20k-probe
// campaign per requested probe. Building hop names per hop, paths and
// attribution lists per probe and map entries per attribution cost
// about 15 per probe; with the tables and reused scratch about 2 are
// left, nearly all of them fixed per campaign (the hop-name table, the
// kept route trees, the retained samples' hops).
func TestCampaignAllocsPerProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector")
	}
	res, _ := campaign(t)
	const n = 20000
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(context.Background(), res, Options{N: n, Seed: 7, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	})
	if perProbe := allocs / n; perProbe > 4 {
		t.Errorf("campaign allocates %.2f per probe (%.0f per run), want <= 4", perProbe, allocs)
	}
}

func TestRunRejectsNegativeN(t *testing.T) {
	res, _ := campaign(t)
	c, err := Run(context.Background(), res, Options{N: -1})
	if err == nil || c != nil || !strings.Contains(err.Error(), "N must be >= 0 (got -1)") {
		t.Fatalf("Run(N=-1) = %v, %v; want an error naming N", c, err)
	}
}
