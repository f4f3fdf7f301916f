package traceroute

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"intertubes/internal/atlas"
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
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
//     outcomes. The draws run on their own goroutine, one window of
//     probes at a time (decisions), so they overlap the route-table
//     build and the synthesis of earlier windows.
//  2. Routing, synthesis, and conduit attribution — the expensive
//     per-probe work — fan out over a worker pool via par.MapSeeded:
//     hop-level randomness (MPLS tunnels, RTT jitter, rDNS noise)
//     comes from per-chunk streams on a fixed grid, and the route
//     tables (routes.go), built on the pool before the first window,
//     hold pure shortest-path trees, so any worker count produces
//     bit-identical traces. Per hop, the kernel reads tables filled
//     once per campaign — a hop slot per (provider, city) holding what
//     a study decodes from the slot's names, provider-indexed rows for
//     attribution — so it does no trigonometry, string building,
//     Dijkstra or name decoding. A hop's RTT, name and Hop record are
//     built only in windows that still retain samples; elsewhere the
//     kernel makes the same draws and keeps only the decoded hop. Each
//     worker counts its attributions into its own dense tally
//     (tally.go). Counts are sums, so the tallies fill the Campaign's
//     maps alike whichever worker ran which probe.
//  3. A serial reduce walks each window's outcomes in probe order: it
//     counts the probes that saw transit and keeps the first
//     RetainTraces of them as samples.

// probeScratch is one worker's probe scratch: the buffers route walks
// and hop synthesis append to, the decoded hops of the trace being
// attributed, and the tally its attributions are counted into.
type probeScratch struct {
	edges   []int // conduits of one attributed segment
	path    []int // cities of the probe's ground-truth path(s)
	decoded []decodedHop
	tally   *tally
	// hops only grows within a window: each probe's sampled hops are
	// the tail it appended, handed to the reduce as a capped slice that
	// is not written again until the window has been reduced. It grows
	// only in windows that still retain samples.
	hops []Hop
}

// decodedHop is what a measurement study reads off one hop name.
type decodedHop struct {
	city int
	isp  int // decoder provider index
}

func newProbeScratch() *probeScratch { return &probeScratch{} }

// scratchPool keeps the workers' probe scratch for a whole campaign:
// the pool hands each window's workers a scratch that earlier windows
// already grew, so buffers and workspaces are reused, not regrown.
// Each scratch counts into its own tally; the counts are sums, so
// which worker ran a probe never shows once the tallies are folded.
type scratchPool struct {
	conduits int // published conduits, the tallies' size
	mu       sync.Mutex
	all      []*probeScratch
	used     int // handed out since the last reset
}

func (p *scratchPool) get() *probeScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used == len(p.all) {
		sc := newProbeScratch()
		sc.tally = newTally(p.conduits)
		p.all = append(p.all, sc)
	}
	p.used++
	return p.all[p.used-1]
}

// reset takes every scratch back, emptying the hop buffers; call it
// only once the previous window is reduced.
func (p *scratchPool) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sc := range p.all {
		sc.hops = sc.hops[:0]
	}
	p.used = 0
}

// probeSpec is one probe's phase-1 decisions.
type probeSpec struct {
	src, dst int
	ispIdx   int
	peer     int // the second provider of a peered probe, -1 if none
}

// campaignWindow is the number of probes phase 2 fans out and reduces
// at a time, bounding the in-flight traces regardless of campaign
// size; phase 1 draws decisions in windows of the same size.
const campaignWindow = 64 * par.ChunkSize

// hopBlock is the number of hops a worker's sample buffer holds per
// block.
const hopBlock = 4096

// decisionBuffers is the number of window buffers phase 1 and phase 2
// pass between them: one being synthesized, one drawn and waiting, and
// one being drawn, so the draws can run ahead whenever a CPU idles.
const decisionBuffers = 3

// decisions streams phase 1 from its own goroutine. The goroutine
// draws window after window into buffers the synthesis loop hands
// back once it has run them; it exits when every probe is decided,
// when ctx is canceled (polled on the pool's chunk grid), or when
// close abandons the stream.
type decisions struct {
	ready chan []probeSpec // drawn windows, in probe order; closed as the goroutine exits
	free  chan []probeSpec // windows phase 2 is done with
	stop  chan struct{}    // closed by close
	// err is why ready closed before the last window (ctx's error),
	// nil otherwise; read it only after ready is closed.
	err error
}

func startDecisions(ctx context.Context, opts Options, grav *gravity, isps []*ispContext) *decisions {
	d := &decisions{
		// Both channels hold every buffer, so no send ever blocks.
		ready: make(chan []probeSpec, decisionBuffers),
		free:  make(chan []probeSpec, decisionBuffers),
		stop:  make(chan struct{}),
	}
	for i := 0; i < decisionBuffers; i++ {
		d.free <- make([]probeSpec, 0, min(campaignWindow, opts.N))
	}
	go func() {
		defer close(d.ready)
		d.err = d.draw(ctx, opts, grav, isps)
	}()
	return d
}

// draw runs phase 1. The per-probe call pattern is fixed — every
// probe draws endpoints, a provider, a peering roll, and a peer pick —
// so the stream cannot drift with routing outcomes.
func (d *decisions) draw(ctx context.Context, opts Options, grav *gravity, isps []*ispContext) error {
	_, span := obs.Trace(ctx, "traceroute.decide")
	defer span.End()
	rng := rand.New(rand.NewSource(opts.Seed))
	var totalWeight float64
	for _, c := range isps {
		totalWeight += c.weight
	}
	for lo := 0; lo < opts.N; lo += campaignWindow {
		var specs []probeSpec
		select {
		case specs = <-d.free:
		case <-d.stop:
			return nil
		}
		specs = specs[:min(campaignWindow, opts.N-lo)]
		for i := range specs {
			// The draws are serial (one shared campaign stream), so
			// they poll ctx themselves on the grid the pool uses.
			if (lo+i)%par.ChunkSize == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			sp := &specs[i]
			*sp = probeSpec{peer: -1}
			sp.src = grav.draw(rng)
			sp.dst = grav.draw(rng)
			x := rng.Float64() * totalWeight
			for ; sp.ispIdx < len(isps)-1; sp.ispIdx++ {
				x -= isps[sp.ispIdx].weight
				if x < 0 {
					break
				}
			}
			peered := rng.Float64() < peerProb
			if len(isps) > 1 {
				// The peer is any other provider: a pick of the first
				// moves on to the next.
				pick := rng.Intn(len(isps))
				if pick == sp.ispIdx {
					pick = (pick + 1) % len(isps)
				}
				if peered {
					sp.peer = pick
				}
			}
		}
		d.ready <- specs
	}
	span.SetItems(int64(opts.N))
	return nil
}

// recycle hands a window's buffer back once phase 2 is done with it.
func (d *decisions) recycle(specs []probeSpec) { d.free <- specs }

// close stops the goroutine and waits for it to exit: it drains
// ready, which the goroutine closes last.
func (d *decisions) close() {
	close(d.stop)
	for range d.ready {
	}
}

// Run synthesizes a campaign over the built map and overlays it onto
// the conduits of pub, the published map: res.Map itself, or a
// scenario's perturbed view of it. Synthesis reads only res's atlas,
// ground truth and corridor graph, so pub changes the attribution and
// never the traces. ctx both parents the campaign's stage spans
// and carries real cancellation: the phase-1 draws, the route-table
// build and every phase-2 window check ctx at chunk-grant boundaries,
// so a canceled campaign stops synthesizing within one window and
// returns (nil, ctx.Err()). A campaign that completes is bit-identical
// to the serial order at any worker count — cancellation can only
// abort a run, never reorder it. Run returns only after every
// goroutine it started has exited. A negative opts.N is an error.
func Run(ctx context.Context, res *mapbuilder.Result, pub fiber.View, opts Options) (*Campaign, error) {
	if opts.N < 0 {
		return nil, fmt.Errorf("traceroute: N must be >= 0 (got %d)", opts.N)
	}
	opts = opts.withDefaults()
	a := res.Atlas

	c := &Campaign{
		Opts:            opts,
		ConduitProbes:   make(map[fiber.ConduitID]*DirCounts),
		ISPConduits:     make(map[string]map[fiber.ConduitID]int64),
		InferredTenants: make(map[fiber.ConduitID]map[string]bool),
		res:             res,
		pub:             pub,
		namer:           NewNamer(a),
	}

	// Transit providers, deterministic order.
	names := make([]string, 0, len(res.Truth))
	for name := range res.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
	isps := transitProviders(res, names)

	// Client/server gravity over all cities.
	pops := make([]float64, len(a.Cities))
	allCities := make([]int, len(a.Cities))
	for i, city := range a.Cities {
		pops[i] = float64(city.Population)
		allCities[i] = i
	}
	grav := newGravity(pops, allCities)

	// Phase 1 starts drawing while the tables below are built.
	decide := startDecisions(ctx, opts, grav, isps)
	defer decide.close()

	// Tables shared by the workers. Every entry is a pure function of
	// the immutable map/atlas, so the tables change speed, never
	// results.
	dist := newCityDistances(a)
	truth := newTruthRoutes(a, res.Graph, dist, isps)
	overlay := newOverlayRoutes(res, pub)
	_, tablesSpan := obs.Trace(ctx, "traceroute.tables")
	tablesSpan.SetWorkers(par.Workers(opts.Workers))
	rows, err := buildRouteTables(ctx, opts.Workers, slices.Concat(truth.tables, overlay.tables()))
	tablesSpan.SetItems(int64(rows))
	tablesSpan.End()
	if err != nil {
		return nil, err
	}
	syn := newSynthesizer(a, c.namer, dist, isps)

	// sampled is the rest of a probe's trace, which only a retained
	// sample needs.
	type sampled struct {
		mpls bool
		hops []Hop
	}
	var window []probeSpec // the decisions of probes [lo, lo+len(window)), set serially
	lo := 0
	// samples[i-lo] is probe i's sampled trace. It is set serially
	// before each window, and only while the reduce still retains
	// samples; hops are built only then. Otherwise it is nil.
	var samples []sampled

	// Phase 2: the pure per-probe kernel — route, synthesize,
	// attribute. It reports whether the probe saw long-haul transit
	// (same rejections as the serial code).
	probe := func(i int, prng *rand.Rand, sc *probeScratch) bool {
		sp := window[i-lo]
		if sp.src == sp.dst || sp.src < 0 {
			return false
		}
		mid := -1 // where the second provider's cities start in sc.path
		if sp.peer >= 0 {
			// The trace crosses two providers, handing off at a mutual
			// peering hub — real paths routinely do, and the overlay
			// must attribute each segment to the right provider from
			// its hop names alone.
			hub := truth.peerHub(sp.ispIdx, sp.peer, sp.src, sp.dst)
			if hub < 0 {
				return false // the two providers never meet
			}
			entry := truth.nearestBackbone(sp.ispIdx, sp.src)
			exit := truth.nearestBackbone(sp.peer, sp.dst)
			if entry < 0 || exit < 0 || entry == hub || exit == hub {
				return false
			}
			var ok bool
			sc.path, ok = truth.appendPath(sc.path[:0], sp.ispIdx, entry, hub)
			mid = len(sc.path)
			if ok {
				sc.path, ok = truth.appendPath(sc.path, sp.peer, hub, exit)
			}
			if !ok {
				return false
			}
		} else {
			entry := truth.nearestBackbone(sp.ispIdx, sp.src)
			exit := truth.nearestBackbone(sp.ispIdx, sp.dst)
			if entry < 0 || exit < 0 || entry == exit {
				return false // no long-haul transit on this trace
			}
			var ok bool
			sc.path, ok = truth.appendPath(sc.path[:0], sp.ispIdx, entry, exit)
			if !ok {
				return false
			}
		}
		keep := samples != nil
		if keep && cap(sc.hops)-len(sc.hops) < len(sc.path) {
			// A probe shows at most one hop per path city. Start a new
			// block rather than regrow the buffer: earlier probes' hops
			// stay in the old one, and copying growth would allocate
			// several times the hops kept.
			sc.hops = make([]Hop, 0, max(hopBlock, len(sc.path)))
		}
		sc.decoded = sc.decoded[:0]
		hops := len(sc.hops)
		var mpls bool
		if mid >= 0 {
			mpls = syn.appendPeeredHops(prng, sc, keep, sp.ispIdx, sp.peer, sp.src, sc.path[:mid], sc.path[mid:])
		} else {
			mpls = syn.appendHops(prng, sc, keep, sp.ispIdx, sp.src, sc.path)
		}
		if keep {
			samples[i-lo] = sampled{mpls: mpls, hops: sc.hops[hops:len(sc.hops):len(sc.hops)]}
		}
		attribute(sc, overlay, sc.tally, Trace{SrcCity: sp.src, DstCity: sp.dst}.WestToEast(c))
		return true
	}

	// Phases 2+3, windowed: each window fans the kernel out over the
	// worker pool and reduces in probe order. The synthesis seed is
	// offset from the campaign seed because phase 1 draws from that
	// stream; chunk indices stay absolute across windows.
	synthSeed := opts.Seed + 0x5eed
	scratch := scratchPool{conduits: pub.NumConduits()}
	for w := range decide.ready {
		window = w
		samples = nil
		if len(c.Samples) < opts.RetainTraces {
			samples = make([]sampled, len(window))
		}
		scratch.reset()
		_, synthSpan := obs.Trace(ctx, "traceroute.synthesize")
		synthSpan.SetWorkers(par.Workers(opts.Workers))
		outs, err := par.MapSeeded(ctx, lo, lo+len(window), opts.Workers, synthSeed, scratch.get, probe)
		synthSpan.SetItems(int64(len(window)))
		synthSpan.End()
		if err != nil {
			return nil, err
		}
		_, reduceSpan := obs.Trace(ctx, "traceroute.reduce")
		kept := int64(0)
		for k, ok := range outs {
			if !ok {
				continue
			}
			kept++
			c.Total++
			if len(c.Samples) < opts.RetainTraces {
				sp := window[k]
				sample := Trace{SrcCity: sp.src, DstCity: sp.dst, ISP: isps[sp.ispIdx].name, MPLS: samples[k].mpls}
				if sp.peer >= 0 {
					sample.PeerISP = isps[sp.peer].name
				}
				// A sample outlives the campaign and its scratch, so its
				// hops are copied out of the worker's buffer and its
				// names out of the arena rather than keeping either
				// alive.
				sample.Hops = slices.Clone(samples[k].hops)
				for h := range sample.Hops {
					sample.Hops[h].Name = strings.Clone(sample.Hops[h].Name)
				}
				c.Samples = append(c.Samples, sample)
			}
		}
		reduceSpan.SetItems(kept)
		reduceSpan.End()
		decide.recycle(window)
		lo += len(window)
	}
	if decide.err != nil {
		return nil, decide.err
	}
	for _, sc := range scratch.all {
		sc.tally.fold(c)
	}
	return c, nil
}

// synthesizer renders the visible hops of probe paths. The tables it
// reads per hop are filled once per campaign with the calls hop
// synthesis and decoding would otherwise make per hop, so a trace is
// bit-identical to one rendered by making them.
type synthesizer struct {
	dist    *cityDistances
	nCities int
	// names holds Namer.HopName of every (provider, backbone city,
	// interface) back to back; slots[isp*nCities+city] locates a
	// provider's names at a city.
	names string
	slots []hopSlot
}

// hopSlot is one (provider, backbone city)'s hop names. A city's
// interface names differ only in their one-digit interface number, so
// they share a length: interface 1 is at off, and interface k starts
// (k-1) lengths later. The decoder never reads the interface label,
// so every name of the slot decodes alike, to hop when decodes is set.
type hopSlot struct {
	off, n  int32
	hop     decodedHop
	decodes bool
}

// hopInterfaces is the number of router interfaces hop names draw
// from (ae-1 .. ae-9).
const hopInterfaces = 9

func newSynthesizer(a *atlas.Atlas, namer *Namer, dist *cityDistances, isps []*ispContext) *synthesizer {
	n := len(a.Cities)
	s := &synthesizer{
		dist: dist, nCities: n,
		slots: make([]hopSlot, len(isps)*n),
	}
	var arena []byte
	for i, ctx := range isps {
		for _, city := range ctx.nodes {
			off := len(arena)
			arena = namer.appendHopName(arena, 1, city, ctx.name)
			s.slots[i*n+city] = hopSlot{off: int32(off), n: int32(len(arena) - off)}
			for ifIndex := 2; ifIndex <= hopInterfaces; ifIndex++ {
				arena = namer.appendHopName(arena, ifIndex, city, ctx.name)
			}
		}
	}
	s.names = string(arena)
	// Decode each slot once, from its interface-1 name.
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.n == 0 {
			continue // not a backbone city of the provider
		}
		city, isp, ok := namer.decodeHop(s.names[sl.off : sl.off+sl.n])
		sl.hop, sl.decodes = decodedHop{city: city, isp: isp}, ok
	}
	return s
}

// appendPeeredHops renders a two-provider trace's hops: the first
// provider's along p1 up to the peering hub, then the second
// provider's along p2. Either segment may independently ride an MPLS
// tunnel; it reports whether one does.
func (s *synthesizer) appendPeeredHops(rng *rand.Rand, sc *probeScratch, keep bool, isp1, isp2, src int, p1, p2 []int) bool {
	start := len(sc.hops)
	mpls1 := s.appendHops(rng, sc, keep, isp1, src, p1)
	// Continue the clock: the second segment's RTTs stack on the
	// first segment's final RTT.
	first := len(sc.hops)
	// The second segment begins at the peering hub, so its access
	// tail is zero-length.
	mpls2 := s.appendHops(rng, sc, keep, isp2, p2[0], p2)
	if first > start {
		base := sc.hops[first-1].RTTms
		for i := first; i < len(sc.hops); i++ {
			sc.hops[i].RTTms += base
		}
	}
	return mpls1 || mpls2
}

// appendHops renders the visible hops of one provider segment: every
// backbone city on the path, unless the segment rides an MPLS tunnel,
// in which case only the ingress and egress are visible (paper §4.3's
// caveat). Each hop name resolves unless rDNS noise hides it; a
// resolved hop's decoding goes onto sc.decoded, and with keep the hop
// itself goes onto sc.hops. The draws do not depend on keep, so the
// stream advances alike either way. It reports whether the segment
// tunnels.
func (s *synthesizer) appendHops(rng *rand.Rand, sc *probeScratch, keep bool, isp, src int, cities []int) bool {
	mpls := rng.Float64() < mplsProb

	visible := cities
	if mpls && len(cities) > 2 {
		ends := [2]int{cities[0], cities[len(cities)-1]}
		visible = ends[:]
	}
	// Cumulative RTT: access tail to the first hop plus fiber distance
	// along the backbone, times two (round trip), with jitter.
	var rtt float64
	if keep {
		rtt = 2 * geo.FiberLatencyMs(s.dist.at(src, cities[0])*1.3)
	}
	prev := cities[0]
	slots := s.slots[isp*s.nCities:]
	for _, city := range visible {
		jitter := rng.Float64()
		iface := -1 // hidden by rDNS noise
		if rng.Float64() >= geoNoiseProb {
			iface = rng.Intn(hopInterfaces)
			if sl := &slots[city]; sl.decodes {
				sc.decoded = append(sc.decoded, sl.hop)
			}
		}
		if !keep {
			continue
		}
		if city != prev {
			rtt += 2 * geo.FiberLatencyMs(s.dist.at(prev, city)*1.2)
			prev = city
		}
		h := Hop{City: city, RTTms: rtt + jitter*0.4}
		if iface >= 0 {
			sl := &slots[city]
			off := int(sl.off) + iface*int(sl.n)
			h.Name = s.names[off : off+int(sl.n)]
		}
		sc.hops = append(sc.hops, h)
	}
	return mpls
}

// attribute maps the decoded hop pairs in sc.decoded onto published
// conduits using only hop names and the published map, and counts
// into t each attribution, scored against ground truth, in the trace's
// direction, and each pair it could not attribute. It returns the
// number of attributions.
func attribute(sc *probeScratch, routes *overlayRoutes, t *tally, westEast bool) (n int) {
	for i := 1; i < len(sc.decoded); i++ {
		a, b := sc.decoded[i-1], sc.decoded[i]
		if a.city == b.city {
			continue
		}
		isp := b.isp // the far end's provider owns the segment
		var ok bool
		sc.edges, ok = routes.segment(sc.edges[:0], a.city, b.city, isp)
		if !ok {
			t.unattributed++
			continue
		}
		for _, cid := range sc.edges {
			// Ground-truth scoring: did the overlay put the probe in a
			// conduit the provider actually occupies?
			t.add(westEast, cid, isp, routes.correct(isp, cid))
		}
		n += len(sc.edges)
	}
	return n
}

// inf excludes an edge from Dijkstra (the graph package skips +Inf
// edges entirely).
var inf = math.Inf(1)
