// Package traceroute implements §4.3 of the paper: a large-scale
// traceroute campaign whose probes are overlaid on the physical
// conduit map, using route popularity as a proxy for traffic volume
// (after Sanchez et al., the paper's [99]).
//
// The paper used three months of Edgescope data (4.9M traceroutes
// from diverse clients). That corpus is proprietary, so this package
// synthesizes a campaign with the same relevant structure: clients
// and servers drawn by population gravity, transit carried by a
// provider chosen in proportion to backbone size, layer-3 hops that
// follow the provider's ground-truth conduit paths, hop names carrying
// the city/provider hints real router names carry, MPLS tunnels that
// elide interior hops, and occasional geolocation noise. The overlay
// then attributes each trace back onto published conduits using ONLY
// what a measurement study would have: hop names and the published
// map.
package traceroute

import (
	"math/rand"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
)

// Options configures a campaign.
type Options struct {
	// N is the number of traceroutes to synthesize (default 200000).
	N int
	// Seed drives the deterministic generator.
	Seed int64
	// MPLSProb is the probability that a trace's transit segment is an
	// MPLS tunnel hiding interior hops (default 0.25; the paper
	// observed tunnels but judged their impact limited).
	MPLSProb float64
	// GeoNoiseProb is the probability a hop name is unusable (e.g. no
	// rDNS), leaving only coarse geolocation (default 0.05).
	GeoNoiseProb float64
	// PeerProb is the probability a trace crosses two providers with a
	// handoff at a mutual peering hub (default 0.3).
	PeerProb float64
	// RetainTraces keeps this many raw traces for inspection
	// (default 64).
	RetainTraces int
	// Workers bounds the worker pool for per-probe routing and
	// attribution (<= 0 means all CPUs). Campaign results are
	// bit-identical for any value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 200000
	}
	if o.MPLSProb == 0 {
		o.MPLSProb = 0.25
	}
	if o.GeoNoiseProb == 0 {
		o.GeoNoiseProb = 0.05
	}
	if o.PeerProb == 0 {
		o.PeerProb = 0.3
	}
	if o.RetainTraces == 0 {
		o.RetainTraces = 64
	}
	return o
}

// Hop is one visible layer-3 hop.
type Hop struct {
	Name  string  // router interface DNS name ("" if unresolvable)
	City  int     // atlas city index (ground truth)
	RTTms float64 // cumulative round-trip time
}

// Trace is one synthesized traceroute.
type Trace struct {
	SrcCity, DstCity int
	ISP              string // first transit provider (ground truth)
	PeerISP          string // second provider after the handoff, if any
	MPLS             bool   // interior hops elided on some segment
	Hops             []Hop
}

// WestToEast reports whether the trace runs from a western origin to
// an eastern destination, classified — as in the paper — from the
// geolocation of the endpoints.
func (t Trace) WestToEast(c *Campaign) bool {
	return c.atlasLon(t.SrcCity) < c.atlasLon(t.DstCity)
}

// DirCounts holds per-direction probe counts.
type DirCounts struct {
	WestEast int64
	EastWest int64
}

// Total returns the sum of both directions.
func (d DirCounts) Total() int64 { return d.WestEast + d.EastWest }

// Campaign is the aggregated result of a traceroute run plus its
// conduit overlay.
type Campaign struct {
	Opts  Options
	Total int

	// ConduitProbes counts probes attributed to each published
	// conduit, by trace direction.
	ConduitProbes map[fiber.ConduitID]*DirCounts
	// ISPConduits counts, per provider (as inferred from hop names),
	// the probes attributed to each conduit.
	ISPConduits map[string]map[fiber.ConduitID]int64
	// InferredTenants records providers observed on each conduit via
	// naming hints — including providers absent from the published
	// tenant list (the paper's "additional ISPs", Figure 9).
	InferredTenants map[fiber.ConduitID]map[string]bool
	// Unattributed counts trace segments the overlay could not map to
	// any published conduit (incomplete map and/or hidden providers).
	Unattributed int64
	// AttributionChecked/Correct measure overlay fidelity against
	// ground truth (possible only because the substrate is synthetic).
	AttributionChecked int64
	AttributionCorrect int64
	// Samples holds a few raw traces for display.
	Samples []Trace

	res   *mapbuilder.Result
	namer *Namer
}

func (c *Campaign) atlasLon(city int) float64 {
	return c.res.Atlas.Cities[city].Loc.Lon
}

// Namer exposes the campaign's hop-name codec.
func (c *Campaign) Namer() *Namer { return c.namer }

// AttributionAccuracy returns the fraction of overlay attributions
// that match the ground-truth conduits.
func (c *Campaign) AttributionAccuracy() float64 {
	if c.AttributionChecked == 0 {
		return 1
	}
	return float64(c.AttributionCorrect) / float64(c.AttributionChecked)
}

// ConduitRank is a row of the paper's Tables 2 and 3.
type ConduitRank struct {
	Conduit fiber.ConduitID
	A, B    string // city keys
	Probes  int64
}

// TopConduits returns the top n conduits by probe count in the given
// direction (westToEast=true reproduces Table 2, false Table 3).
func (c *Campaign) TopConduits(n int, westToEast bool) []ConduitRank {
	out := make([]ConduitRank, 0, len(c.ConduitProbes))
	for cid, d := range c.ConduitProbes {
		count := d.WestEast
		if !westToEast {
			count = d.EastWest
		}
		if count == 0 {
			continue
		}
		con := c.res.Map.Conduit(cid)
		out = append(out, ConduitRank{
			Conduit: cid,
			A:       c.res.Map.Node(con.A).Key(),
			B:       c.res.Map.Node(con.B).Key(),
			Probes:  count,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probes != out[j].Probes {
			return out[i].Probes > out[j].Probes
		}
		return out[i].Conduit < out[j].Conduit
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// ISPRank is a row of the paper's Table 4.
type ISPRank struct {
	ISP      string
	Conduits int
	Probes   int64
}

// TopISPs returns providers ranked by the number of conduits observed
// carrying their probes (Table 4; Level 3 leads in the paper).
func (c *Campaign) TopISPs(n int) []ISPRank {
	out := make([]ISPRank, 0, len(c.ISPConduits))
	for isp, conduits := range c.ISPConduits {
		var probes int64
		for _, p := range conduits {
			probes += p
		}
		out = append(out, ISPRank{ISP: isp, Conduits: len(conduits), Probes: probes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conduits != out[j].Conduits {
			return out[i].Conduits > out[j].Conduits
		}
		if out[i].Probes != out[j].Probes {
			return out[i].Probes > out[j].Probes
		}
		return out[i].ISP < out[j].ISP
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// SharingWithTraffic returns, for every published conduit, the
// published tenant count and the tenant count after adding providers
// inferred from the traceroute overlay — the two CDFs of Figure 9.
func (c *Campaign) SharingWithTraffic() (published, overlaid []int) {
	for i := range c.res.Map.Conduits {
		con := &c.res.Map.Conduits[i]
		if len(con.Tenants) == 0 {
			continue
		}
		published = append(published, len(con.Tenants))
		extra := 0
		for isp := range c.InferredTenants[con.ID] {
			if !con.HasTenant(isp) {
				extra++
			}
		}
		overlaid = append(overlaid, len(con.Tenants)+extra)
	}
	return published, overlaid
}

// gravity draws a city index weighted by population.
type gravity struct {
	cities []int
	cum    []float64
}

func newGravity(pops []float64, cities []int) *gravity {
	g := &gravity{cities: cities, cum: make([]float64, len(cities))}
	var total float64
	for i, c := range cities {
		total += pops[c]
		g.cum[i] = total
	}
	return g
}

func (g *gravity) draw(rng *rand.Rand) int {
	if len(g.cities) == 0 {
		return -1
	}
	x := rng.Float64() * g.cum[len(g.cum)-1]
	i := sort.SearchFloat64s(g.cum, x)
	if i >= len(g.cities) {
		i = len(g.cities) - 1
	}
	return g.cities[i]
}
