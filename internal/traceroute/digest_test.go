package traceroute

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"

	"intertubes/internal/fiber"
)

// digest_test.go pins the campaign's output bytes: a digest over every
// aggregate and retained sample at a fixed seed, recorded from the
// per-pair-Dijkstra implementation the route tables replaced. Route
// resolution is pure, so any change to how routes are found or cached
// must leave these digests untouched.

// writeCampaignDigest serializes every Campaign aggregate in a
// canonical order. Floats are written in hex so the digest is
// bit-exact.
func writeCampaignDigest(w io.Writer, c *Campaign) {
	fmt.Fprintf(w, "total %d unattributed %d checked %d correct %d\n",
		c.Total, c.Unattributed, c.AttributionChecked, c.AttributionCorrect)
	cids := make([]fiber.ConduitID, 0, len(c.ConduitProbes))
	for cid := range c.ConduitProbes {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	for _, cid := range cids {
		d := c.ConduitProbes[cid]
		fmt.Fprintf(w, "probes %d %d %d\n", cid, d.WestEast, d.EastWest)
	}
	isps := make([]string, 0, len(c.ISPConduits))
	for isp := range c.ISPConduits {
		isps = append(isps, isp)
	}
	sort.Strings(isps)
	for _, isp := range isps {
		byCID := c.ISPConduits[isp]
		cids := cids[:0:0]
		for cid := range byCID {
			cids = append(cids, cid)
		}
		sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
		for _, cid := range cids {
			fmt.Fprintf(w, "isp %q %d %d\n", isp, cid, byCID[cid])
		}
	}
	cids = cids[:0]
	for cid := range c.InferredTenants {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	for _, cid := range cids {
		var names []string
		for isp, ok := range c.InferredTenants[cid] {
			if ok {
				names = append(names, isp)
			}
		}
		sort.Strings(names)
		fmt.Fprintf(w, "tenants %d %q\n", cid, names)
	}
	for _, tr := range c.Samples {
		fmt.Fprintf(w, "trace %d %d %q %q %v\n", tr.SrcCity, tr.DstCity, tr.ISP, tr.PeerISP, tr.MPLS)
		for _, h := range tr.Hops {
			fmt.Fprintf(w, " hop %q %d %s\n", h.Name, h.City, strconv.FormatFloat(h.RTTms, 'x', -1, 64))
		}
	}
}

func campaignDigest(c *Campaign) string {
	h := sha256.New()
	writeCampaignDigest(h, c)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestCampaignDigestPinned(t *testing.T) {
	res, _ := campaign(t)
	const want = "d2adcdc5c942c29d2750f2fd885453052fcb658a834b0976efc04c221dd065e2"
	for _, workers := range []int{1, 3} {
		c, _ := Run(context.Background(), res, res.Map, Options{N: 20000, Seed: 99, Workers: workers})
		if got := campaignDigest(c); got != want {
			t.Errorf("workers=%d: campaign digest %s, want %s", workers, got, want)
		}
	}
}

// TestOverlayParsedDigestPinned overlays a few thousand re-parsed
// synthetic traces — plus hop names a foreign corpus could carry —
// into a fresh campaign and pins the merged aggregates.
func TestOverlayParsedDigestPinned(t *testing.T) {
	res, _ := campaign(t)
	src, _ := Run(context.Background(), res, res.Map, Options{N: 4000, Seed: 17, RetainTraces: 4000})
	var text strings.Builder
	for _, tr := range src.Samples {
		text.WriteString(src.FormatText(tr))
		text.WriteString("\n")
	}
	text.WriteString(" 1  xe-0.chicil.att.net  1.2 ms\n 2  xe-3.stlsmo.att.net  8.7 ms\n 3  * * *\n 4  ae-9.dnvrco.level3.net  24.9 ms\n\n")
	parsed, err := ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Run(context.Background(), res, res.Map, Options{N: 500, Seed: 31})
	n := c.OverlayParsed(parsed)
	got := fmt.Sprintf("%d %s", n, campaignDigest(c))
	const want = "3527 ef3ceea62420acc5372ede73daac3690aa4383de38db89e453444d30e84bae3d"
	if got != want {
		t.Errorf("overlay digest %s, want %s", got, want)
	}
}

// TestCampaignSamplesDigestPinned pins the retained samples' hops and
// RTTs alongside the aggregates. 5000 samples of a 20k-probe campaign
// span two decision windows, so sampling stops partway through the
// second; a single sample stops in the first window's first chunk.
func TestCampaignSamplesDigestPinned(t *testing.T) {
	res := campaignMap()
	for _, tc := range []struct {
		retain int
		want   string
	}{
		{5000, "604b9875a67a8c4f80d3f419c50c52461bbe372b3024bbe4116dbe9106d6a641"},
		{1, "d3253ea1eb0f9491ad7f8b6d413c8233bd07e769b6bdcc93d3f6edb732800272"},
	} {
		for _, workers := range []int{1, 3} {
			c, err := Run(context.Background(), res, res.Map, Options{N: 20000, Seed: 99, RetainTraces: tc.retain, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Samples) != tc.retain {
				t.Errorf("retain=%d workers=%d: %d samples", tc.retain, workers, len(c.Samples))
			}
			if got := campaignDigest(c); got != tc.want {
				t.Errorf("retain=%d workers=%d: campaign digest %s, want %s", tc.retain, workers, got, tc.want)
			}
		}
	}
}
