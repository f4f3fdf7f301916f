package traceroute

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/obs"
	"intertubes/internal/par"
)

// run.go synthesizes the campaign and performs the conduit overlay.
//
// The campaign is structured for deterministic parallelism in three
// phases:
//
//  1. Probe decisions (endpoints, transit provider, peering) are drawn
//     serially from the campaign stream with a fixed number of rand
//     calls per probe, so the sequence never depends on routing
//     outcomes.
//  2. Routing, synthesis, and conduit attribution — the expensive
//     per-probe work — fan out over a worker pool via par.MapSeeded:
//     hop-level randomness (MPLS tunnels, RTT jitter, rDNS noise)
//     comes from per-chunk streams on a fixed grid, and the route
//     tables (routes.go) hold pure shortest-path trees, so any worker
//     count produces bit-identical traces.
//  3. Campaign counters are reduced in probe order on one goroutine.

// segAttr is one conduit attribution extracted from a trace: the
// overlay's output for a single visible hop pair, before it is folded
// into the campaign counters.
type segAttr struct {
	cid     fiber.ConduitID
	isp     string
	correct bool // matches the provider's ground-truth footprint
}

// probeScratch is one worker's probe scratch: the workspace tree
// builds run in, the buffer segment walks append to, and the decoded
// hops and attributions of the trace being attributed.
type probeScratch struct {
	ws    *graph.Workspace
	edges []int
	hops  []decodedHop
	attrs []segAttr
}

// decodedHop is what a measurement study reads off one hop name.
type decodedHop struct {
	city int
	isp  string
}

func newProbeScratch() *probeScratch { return &probeScratch{ws: graph.NewWorkspace()} }

// Run synthesizes a campaign over the built map and overlays it onto
// the published conduits. ctx both parents the campaign's stage spans
// and carries real cancellation: the phase-1 decision loop and every
// phase-2 window check ctx at chunk-grant boundaries, so a canceled
// campaign stops synthesizing within one window and returns
// (nil, ctx.Err()). A campaign that completes is bit-identical to the
// serial order at any worker count — cancellation can only abort a
// run, never reorder it.
func Run(ctx context.Context, res *mapbuilder.Result, opts Options) (*Campaign, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	a := res.Atlas
	g := res.Graph

	c := &Campaign{
		Opts:            opts,
		ConduitProbes:   make(map[fiber.ConduitID]*DirCounts),
		ISPConduits:     make(map[string]map[fiber.ConduitID]int64),
		InferredTenants: make(map[fiber.ConduitID]map[string]bool),
		truthByName:     make(map[string]map[int]bool, len(res.Truth)),
		ispIndex:        make(map[string]int),
		res:             res,
		namer:           NewNamer(a),
	}
	for name, fp := range res.Truth {
		c.truthByName[name] = fp.Edges
	}

	// Transit providers, deterministic order. Provider indices
	// are assigned up front so workers never mutate the index map.
	names := make([]string, 0, len(res.Truth))
	for name := range res.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		c.ispIndex[name] = i
	}
	isps := transitProviders(res, names)
	var totalWeight float64
	for _, ctx := range isps {
		totalWeight += ctx.weight
	}

	// Client/server gravity over all cities.
	pops := make([]float64, len(a.Cities))
	allCities := make([]int, len(a.Cities))
	for i, city := range a.Cities {
		pops[i] = float64(city.Population)
		allCities[i] = i
	}
	grav := newGravity(pops, allCities)

	// Route tables shared by the workers (routes.go). Every entry is a
	// pure function of the immutable map/atlas, so the tables change
	// speed, never results.
	truth := newTruthRoutes(a, g, isps)
	overlay := newOverlayRoutes(res, c.ispIndex)

	// Phase 1: probe-level decisions from the campaign stream. The
	// per-probe call pattern is fixed — every probe draws endpoints,
	// a provider, a peering roll, and a peer pick — so the stream
	// cannot drift with routing outcomes.
	type probeSpec struct {
		src, dst int
		ispIdx   int
		peer     bool
		peerPick int
	}
	_, decideSpan := obs.Trace(ctx, "traceroute.decide")
	specs := make([]probeSpec, opts.N)
	for i := range specs {
		// The decision loop is serial (one shared campaign stream), so
		// it polls ctx itself on the same grid the pool uses.
		if i%par.ChunkSize == 0 && ctx.Err() != nil {
			decideSpan.End()
			return nil, ctx.Err()
		}
		sp := &specs[i]
		sp.src = grav.draw(rng)
		sp.dst = grav.draw(rng)
		x := rng.Float64() * totalWeight
		for ; sp.ispIdx < len(isps)-1; sp.ispIdx++ {
			x -= isps[sp.ispIdx].weight
			if x < 0 {
				break
			}
		}
		sp.peer = rng.Float64() < opts.PeerProb
		if len(isps) > 1 {
			sp.peerPick = rng.Intn(len(isps))
		}
	}
	decideSpan.SetItems(int64(opts.N))
	decideSpan.End()

	// Phase 2: the pure per-probe kernel — route, synthesize,
	// attribute. A zero probeOut means the probe saw no long-haul
	// transit (same rejections as the serial code).
	type probeOut struct {
		ok       bool
		trace    Trace
		westEast bool
		attrs    []segAttr
		misses   int
	}
	probe := func(i int, prng *rand.Rand, sc *probeScratch) probeOut {
		sp := specs[i]
		if sp.src == sp.dst || sp.src < 0 {
			return probeOut{}
		}
		ctx := isps[sp.ispIdx]
		var trace Trace
		if sp.peer && len(isps) > 1 {
			// The trace crosses two providers, handing off at a mutual
			// peering hub — real paths routinely do, and the overlay
			// must attribute each segment to the right provider from
			// its hop names alone.
			isp2Idx := sp.peerPick
			if isp2Idx == sp.ispIdx {
				isp2Idx = (isp2Idx + 1) % len(isps)
			}
			hub := truth.peerHub(sp.ispIdx, isp2Idx, sp.src, sp.dst)
			if hub < 0 {
				return probeOut{} // the two providers never meet
			}
			entry := truth.nearestBackbone(sp.ispIdx, sp.src)
			exit := truth.nearestBackbone(isp2Idx, sp.dst)
			if entry < 0 || exit < 0 || entry == hub || exit == hub {
				return probeOut{}
			}
			p1, ok1 := truth.path(sc.ws, sp.ispIdx, entry, hub)
			p2, ok2 := truth.path(sc.ws, isp2Idx, hub, exit)
			if !ok1 || !ok2 {
				return probeOut{}
			}
			trace = c.synthesizeTwo(prng, ctx, isps[isp2Idx], sp.src, sp.dst, p1, p2)
		} else {
			entry := truth.nearestBackbone(sp.ispIdx, sp.src)
			exit := truth.nearestBackbone(sp.ispIdx, sp.dst)
			if entry < 0 || exit < 0 || entry == exit {
				return probeOut{} // no long-haul transit on this trace
			}
			path, ok := truth.path(sc.ws, sp.ispIdx, entry, exit)
			if !ok {
				return probeOut{}
			}
			trace = c.synthesize(prng, ctx, sp.src, sp.dst, path)
		}
		out := probeOut{ok: true, trace: trace, westEast: trace.WestToEast(c)}
		out.attrs, out.misses = c.attribute(sc, trace, overlay)
		return out
	}

	// Phases 2+3, windowed: each window fans the kernel out over the
	// worker pool and reduces in probe order, bounding the in-flight
	// traces regardless of campaign size. The synthesis seed is offset
	// from the campaign seed because phase 1 already consumed that
	// stream; chunk indices stay absolute across windows.
	synthSeed := opts.Seed + 0x5eed
	const window = 64 * par.ChunkSize
	for lo := 0; lo < opts.N; lo += window {
		hi := lo + window
		if hi > opts.N {
			hi = opts.N
		}
		_, synthSpan := obs.Trace(ctx, "traceroute.synthesize")
		synthSpan.SetWorkers(par.Workers(opts.Workers))
		outs, err := par.MapSeeded(ctx, lo, hi, opts.Workers, synthSeed, newProbeScratch, probe)
		synthSpan.SetItems(int64(hi - lo))
		synthSpan.End()
		if err != nil {
			return nil, err
		}
		_, reduceSpan := obs.Trace(ctx, "traceroute.reduce")
		kept := int64(0)
		for _, o := range outs {
			if !o.ok {
				continue
			}
			kept++
			c.Total++
			if len(c.Samples) < opts.RetainTraces {
				c.Samples = append(c.Samples, o.trace)
			}
			c.apply(o.westEast, o.attrs, o.misses)
		}
		reduceSpan.SetItems(kept)
		reduceSpan.End()
	}
	return c, nil
}

// synthesize renders one single-provider trace.
func (c *Campaign) synthesize(rng *rand.Rand, ctx *ispContext, src, dst int, path graph.Path) Trace {
	hops, mpls := c.appendHops(rng, ctx, src, path, make([]Hop, 0, len(path.Nodes)))
	return Trace{SrcCity: src, DstCity: dst, ISP: ctx.name, MPLS: mpls, Hops: hops}
}

// synthesizeTwo renders a two-provider trace: the first provider's
// hops up to the peering hub, then the second provider's hops. Either
// segment may independently ride an MPLS tunnel.
func (c *Campaign) synthesizeTwo(rng *rand.Rand, ctx1, ctx2 *ispContext, src, dst int, p1, p2 graph.Path) Trace {
	hops, mpls1 := c.appendHops(rng, ctx1, src, p1, make([]Hop, 0, len(p1.Nodes)+len(p2.Nodes)))
	// Continue the clock: the second segment's RTTs stack on the
	// first segment's final RTT.
	base := 0.0
	if len(hops) > 0 {
		base = hops[len(hops)-1].RTTms
	}
	first := len(hops)
	// The second segment begins at the peering hub, so its access
	// tail is zero-length.
	hops, mpls2 := c.appendHops(rng, ctx2, p2.Nodes[0], p2, hops)
	for i := first; i < len(hops); i++ {
		hops[i].RTTms += base
	}
	return Trace{SrcCity: src, DstCity: dst, ISP: ctx1.name, PeerISP: ctx2.name, MPLS: mpls1 || mpls2, Hops: hops}
}

// appendHops renders the visible hops of one provider segment onto
// hops: every backbone city on the path, unless the segment rides an
// MPLS tunnel, in which case only the ingress and egress are visible
// (paper §4.3's caveat). Each hop name resolves unless rDNS noise
// hides it. It reports whether the segment tunnels.
func (c *Campaign) appendHops(rng *rand.Rand, ctx *ispContext, src int, path graph.Path, hops []Hop) ([]Hop, bool) {
	a := c.res.Atlas
	mpls := rng.Float64() < c.Opts.MPLSProb

	cities := path.Nodes
	visible := cities
	if mpls && len(cities) > 2 {
		ends := [2]int{cities[0], cities[len(cities)-1]}
		visible = ends[:]
	}
	// Cumulative RTT: access tail to the first hop plus fiber distance
	// along the backbone, times two (round trip), with jitter.
	rtt := 2 * geo.FiberLatencyMs(a.Cities[src].Loc.DistanceKm(a.Cities[cities[0]].Loc)*1.3)
	prev := cities[0]
	for _, city := range visible {
		if city != prev {
			rtt += 2 * geo.FiberLatencyMs(a.Cities[prev].Loc.DistanceKm(a.Cities[city].Loc)*1.2)
			prev = city
		}
		h := Hop{City: city, RTTms: rtt + rng.Float64()*0.4}
		if rng.Float64() >= c.Opts.GeoNoiseProb {
			h.Name = c.namer.HopName(1+rng.Intn(9), city, ctx.name)
		}
		hops = append(hops, h)
	}
	return hops, mpls
}

// attribute maps one trace's visible hop pairs onto published
// conduits using only hop names and the published map, and scores
// each attribution against ground truth. It mutates nothing on the
// campaign: the counter updates happen in apply, on the reducing
// goroutine.
func (c *Campaign) attribute(sc *probeScratch, t Trace, routes *overlayRoutes) (attrs []segAttr, misses int) {
	m := c.res.Map

	// Decode the hops a measurement study could decode.
	sc.hops = sc.hops[:0]
	for _, h := range t.Hops {
		if h.Name == "" {
			continue
		}
		city, isp, ok := c.namer.DecodeHopName(h.Name)
		if !ok {
			continue
		}
		sc.hops = append(sc.hops, decodedHop{city: city, isp: isp})
	}
	sc.attrs = sc.attrs[:0]
	for i := 1; i < len(sc.hops); i++ {
		a, b := sc.hops[i-1], sc.hops[i]
		if a.city == b.city {
			continue
		}
		isp := b.isp // the far end's provider owns the segment
		var ok bool
		sc.edges, ok = routes.segment(sc.ws, sc.edges[:0], a.city, b.city, isp)
		if !ok {
			misses++
			continue
		}
		for _, eid := range sc.edges {
			cid := fiber.ConduitID(eid)
			sc.attrs = append(sc.attrs, segAttr{
				cid: cid, isp: isp,
				// Ground-truth scoring: did the overlay put the probe
				// in a conduit the provider actually occupies?
				correct: c.truthByName[isp][m.Conduit(cid).Corridor],
			})
		}
	}
	return slices.Clone(sc.attrs), misses
}

// apply folds one trace's attributions into the campaign counters.
func (c *Campaign) apply(westEast bool, attrs []segAttr, misses int) {
	c.Unattributed += int64(misses)
	for _, at := range attrs {
		dc := c.ConduitProbes[at.cid]
		if dc == nil {
			dc = &DirCounts{}
			c.ConduitProbes[at.cid] = dc
		}
		if westEast {
			dc.WestEast++
		} else {
			dc.EastWest++
		}
		byISP := c.ISPConduits[at.isp]
		if byISP == nil {
			byISP = make(map[fiber.ConduitID]int64)
			c.ISPConduits[at.isp] = byISP
		}
		byISP[at.cid]++
		tenants := c.InferredTenants[at.cid]
		if tenants == nil {
			tenants = make(map[string]bool)
			c.InferredTenants[at.cid] = tenants
		}
		tenants[at.isp] = true
		c.AttributionChecked++
		if at.correct {
			c.AttributionCorrect++
		}
	}
}

// inf excludes an edge from Dijkstra (the graph package skips +Inf
// edges entirely).
var inf = math.Inf(1)
