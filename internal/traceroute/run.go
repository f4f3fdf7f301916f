package traceroute

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"intertubes/internal/atlas"
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
//     count produces bit-identical traces. Per hop, the kernel reads
//     tables filled once per campaign — city-pair distances and hop
//     names for synthesis, provider-indexed rows for attribution — so
//     it does no trigonometry or string building; every hop is still
//     decoded from its name.
//  3. Attributions are reduced in probe order on one goroutine into a
//     dense tally (tally.go), which fills the Campaign's maps once.

// segAttr is one conduit attribution extracted from a trace: the
// overlay's output for a single visible hop pair, before the reduce
// counts it.
type segAttr struct {
	cid     int32 // published conduit
	isp     int32 // decoder provider index (domainTable)
	correct bool  // matches the provider's ground-truth footprint
}

// probeScratch is one worker's probe scratch: the workspace tree
// builds run in, the buffers route walks and hop synthesis append to,
// and the decoded hops and attributions of the trace being attributed.
type probeScratch struct {
	ws      *graph.Workspace
	edges   []int // conduits of one attributed segment
	path    []int // cities of the probe's ground-truth path(s)
	trace   []Hop // the probe's synthesized hops
	decoded []decodedHop
	// attrs only grows within a window: each probe's attributions are
	// the tail it appended, handed to the reduce as a capped slice
	// that is not written again until the window has been reduced.
	attrs []segAttr
}

// decodedHop is what a measurement study reads off one hop name.
type decodedHop struct {
	city int
	isp  int // decoder provider index
}

func newProbeScratch() *probeScratch { return &probeScratch{ws: graph.NewWorkspace()} }

// scratchPool keeps the workers' probe scratch for a whole campaign:
// the pool hands each window's workers a scratch that earlier windows
// already grew, so buffers and workspaces are reused, not regrown.
type scratchPool struct {
	mu   sync.Mutex
	all  []*probeScratch
	used int // handed out since the last reset
}

func (p *scratchPool) get() *probeScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used == len(p.all) {
		p.all = append(p.all, newProbeScratch())
	}
	p.used++
	return p.all[p.used-1]
}

// reset takes every scratch back, emptying the attribution buffers;
// call it only once the previous window is reduced.
func (p *scratchPool) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sc := range p.all {
		sc.attrs = sc.attrs[:0]
	}
	p.used = 0
}

// Run synthesizes a campaign over the built map and overlays it onto
// the published conduits. ctx both parents the campaign's stage spans
// and carries real cancellation: the phase-1 decision loop and every
// phase-2 window check ctx at chunk-grant boundaries, so a canceled
// campaign stops synthesizing within one window and returns
// (nil, ctx.Err()). A campaign that completes is bit-identical to the
// serial order at any worker count — cancellation can only abort a
// run, never reorder it. A negative opts.N is an error.
func Run(ctx context.Context, res *mapbuilder.Result, opts Options) (*Campaign, error) {
	if opts.N < 0 {
		return nil, fmt.Errorf("traceroute: N must be >= 0 (got %d)", opts.N)
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	a := res.Atlas
	g := res.Graph

	c := &Campaign{
		Opts:            opts,
		ConduitProbes:   make(map[fiber.ConduitID]*DirCounts),
		ISPConduits:     make(map[string]map[fiber.ConduitID]int64),
		InferredTenants: make(map[fiber.ConduitID]map[string]bool),
		res:             res,
		namer:           NewNamer(a),
	}

	// Transit providers, deterministic order.
	names := make([]string, 0, len(res.Truth))
	for name := range res.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
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

	// Tables shared by the workers. Every entry is a pure function of
	// the immutable map/atlas, so the tables change speed, never
	// results.
	dist := newCityDistances(a)
	truth := newTruthRoutes(a, g, dist, isps)
	overlay := newOverlayRoutes(res)
	syn := newSynthesizer(a, c.namer, dist, isps, opts)

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
	// transit (same rejections as the serial code). The trace itself
	// is kept only while the reduce still retains samples.
	type probeOut struct {
		ok       bool
		westEast bool
		misses   int
		attrs    []segAttr
		sample   *Trace
	}
	sampling := false // set serially before each window
	probe := func(i int, prng *rand.Rand, sc *probeScratch) probeOut {
		sp := specs[i]
		if sp.src == sp.dst || sp.src < 0 {
			return probeOut{}
		}
		trace := Trace{SrcCity: sp.src, DstCity: sp.dst, ISP: isps[sp.ispIdx].name}
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
			var ok bool
			sc.path, ok = truth.appendPath(sc.ws, sc.path[:0], sp.ispIdx, entry, hub)
			mid := len(sc.path)
			if ok {
				sc.path, ok = truth.appendPath(sc.ws, sc.path, isp2Idx, hub, exit)
			}
			if !ok {
				return probeOut{}
			}
			trace.PeerISP = isps[isp2Idx].name
			sc.trace, trace.MPLS = syn.appendPeeredHops(prng, sp.ispIdx, isp2Idx, sp.src, sc.path[:mid], sc.path[mid:], sc.trace[:0])
		} else {
			entry := truth.nearestBackbone(sp.ispIdx, sp.src)
			exit := truth.nearestBackbone(sp.ispIdx, sp.dst)
			if entry < 0 || exit < 0 || entry == exit {
				return probeOut{} // no long-haul transit on this trace
			}
			var ok bool
			sc.path, ok = truth.appendPath(sc.ws, sc.path[:0], sp.ispIdx, entry, exit)
			if !ok {
				return probeOut{}
			}
			sc.trace, trace.MPLS = syn.appendHops(prng, sp.ispIdx, sp.src, sc.path, sc.trace[:0])
		}
		c.decode(sc, sc.trace)
		start := len(sc.attrs)
		out := probeOut{ok: true, westEast: trace.WestToEast(c), misses: attribute(sc, overlay)}
		out.attrs = sc.attrs[start:len(sc.attrs):len(sc.attrs)]
		if sampling {
			sample := trace
			sample.Hops = slices.Clone(sc.trace)
			out.sample = &sample
		}
		return out
	}

	// Phases 2+3, windowed: each window fans the kernel out over the
	// worker pool and reduces in probe order, bounding the in-flight
	// traces regardless of campaign size. The synthesis seed is offset
	// from the campaign seed because phase 1 already consumed that
	// stream; chunk indices stay absolute across windows.
	synthSeed := opts.Seed + 0x5eed
	const window = 64 * par.ChunkSize
	t := newTally(len(res.Map.Conduits))
	var scratch scratchPool
	for lo := 0; lo < opts.N; lo += window {
		hi := lo + window
		if hi > opts.N {
			hi = opts.N
		}
		sampling = len(c.Samples) < opts.RetainTraces
		scratch.reset()
		_, synthSpan := obs.Trace(ctx, "traceroute.synthesize")
		synthSpan.SetWorkers(par.Workers(opts.Workers))
		outs, err := par.MapSeeded(ctx, lo, hi, opts.Workers, synthSeed, scratch.get, probe)
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
				c.Samples = append(c.Samples, *o.sample)
			}
			t.add(o.westEast, o.attrs, o.misses)
		}
		reduceSpan.SetItems(kept)
		reduceSpan.End()
	}
	t.fold(c)
	return c, nil
}

// synthesizer renders the visible hops of probe paths. The tables it
// reads per hop are filled once per campaign with the calls hop
// synthesis would otherwise make per hop, so a trace is bit-identical
// to one rendered by making them.
type synthesizer struct {
	opts    Options
	dist    *cityDistances
	nCities int
	// nameAt[isp*nCities+city] is the position in names of the
	// provider's hop name for the city's interface 1, or -1 off its
	// backbone; interfaces 2..9 follow in order.
	nameAt []int32
	names  []string // Namer.HopName of each (provider, backbone city, interface)
}

// hopInterfaces is the number of router interfaces hop names draw
// from (ae-1 .. ae-9).
const hopInterfaces = 9

func newSynthesizer(a *atlas.Atlas, namer *Namer, dist *cityDistances, isps []*ispContext, opts Options) *synthesizer {
	n := len(a.Cities)
	s := &synthesizer{
		opts: opts, dist: dist, nCities: n,
		nameAt: make([]int32, len(isps)*n),
	}
	for i := range s.nameAt {
		s.nameAt[i] = -1
	}
	for i, ctx := range isps {
		for _, city := range ctx.nodes {
			s.nameAt[i*n+city] = int32(len(s.names))
			for ifIndex := 1; ifIndex <= hopInterfaces; ifIndex++ {
				s.names = append(s.names, namer.HopName(ifIndex, city, ctx.name))
			}
		}
	}
	return s
}

// appendPeeredHops renders a two-provider trace's hops onto the empty
// hops: the first provider's along p1 up to the peering hub, then the
// second provider's along p2. Either segment may independently ride an
// MPLS tunnel; it reports whether one does.
func (s *synthesizer) appendPeeredHops(rng *rand.Rand, isp1, isp2, src int, p1, p2 []int, hops []Hop) ([]Hop, bool) {
	hops, mpls1 := s.appendHops(rng, isp1, src, p1, hops)
	// Continue the clock: the second segment's RTTs stack on the
	// first segment's final RTT.
	base := 0.0
	if len(hops) > 0 {
		base = hops[len(hops)-1].RTTms
	}
	first := len(hops)
	// The second segment begins at the peering hub, so its access
	// tail is zero-length.
	hops, mpls2 := s.appendHops(rng, isp2, p2[0], p2, hops)
	for i := first; i < len(hops); i++ {
		hops[i].RTTms += base
	}
	return hops, mpls1 || mpls2
}

// appendHops renders the visible hops of one provider segment onto
// hops: every backbone city on the path, unless the segment rides an
// MPLS tunnel, in which case only the ingress and egress are visible
// (paper §4.3's caveat). Each hop name resolves unless rDNS noise
// hides it. It reports whether the segment tunnels.
func (s *synthesizer) appendHops(rng *rand.Rand, isp, src int, cities []int, hops []Hop) ([]Hop, bool) {
	mpls := rng.Float64() < s.opts.MPLSProb

	visible := cities
	if mpls && len(cities) > 2 {
		ends := [2]int{cities[0], cities[len(cities)-1]}
		visible = ends[:]
	}
	// Cumulative RTT: access tail to the first hop plus fiber distance
	// along the backbone, times two (round trip), with jitter.
	rtt := 2 * geo.FiberLatencyMs(s.dist.at(src, cities[0])*1.3)
	prev := cities[0]
	nameAt := s.nameAt[isp*s.nCities:]
	for _, city := range visible {
		if city != prev {
			rtt += 2 * geo.FiberLatencyMs(s.dist.at(prev, city)*1.2)
			prev = city
		}
		h := Hop{City: city, RTTms: rtt + rng.Float64()*0.4}
		if rng.Float64() >= s.opts.GeoNoiseProb {
			h.Name = s.names[int(nameAt[city])+rng.Intn(hopInterfaces)]
		}
		hops = append(hops, h)
	}
	return hops, mpls
}

// decode fills sc.decoded with the hops a measurement study could
// decode from hops' names.
func (c *Campaign) decode(sc *probeScratch, hops []Hop) {
	sc.decoded = sc.decoded[:0]
	for _, h := range hops {
		if city, isp, ok := c.namer.decodeHop(h.Name); ok {
			sc.decoded = append(sc.decoded, decodedHop{city: city, isp: isp})
		}
	}
}

// attribute maps the decoded hop pairs in sc.decoded onto published
// conduits using only hop names and the published map, appends each
// attribution, scored against ground truth, to sc.attrs, and returns
// the number of pairs it could not attribute.
func attribute(sc *probeScratch, routes *overlayRoutes) (misses int) {
	for i := 1; i < len(sc.decoded); i++ {
		a, b := sc.decoded[i-1], sc.decoded[i]
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
		for _, cid := range sc.edges {
			sc.attrs = append(sc.attrs, segAttr{
				cid: int32(cid), isp: int32(isp),
				// Ground-truth scoring: did the overlay put the probe
				// in a conduit the provider actually occupies?
				correct: routes.correct(isp, cid),
			})
		}
	}
	return misses
}

// inf excludes an edge from Dijkstra (the graph package skips +Inf
// edges entirely).
var inf = math.Inf(1)
