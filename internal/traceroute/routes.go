package traceroute

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"intertubes/internal/atlas"
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/par"
)

// routes.go holds the route tables of one campaign. Every route a
// probe needs is a pure function of the immutable atlas and published
// view, so the tables resolve each route once, before the first probe,
// and keep it for the rest of the campaign:
//
//   - nearest backbone city per (provider, city), dense;
//   - peering hubs per provider pair, dense, and the per-city trig
//     terms the hub choice reads;
//   - one weight row per provider: its ground-truth corridors for
//     synthesis, its published tenancy for the overlay, plus one row
//     of every lit conduit;
//   - one ground-truth occupancy row per provider over the published
//     conduits, which attributions are scored against;
//   - one dense route table per weight row (routeTable): the parent
//     edge of every destination in the shortest-path tree of every
//     source. Every truth-path and segment query walks a table instead
//     of running its own Dijkstra.
//
// A route table covers only the vertices its row can reach: the
// endpoints of the row's finite-weight edges. Dijkstra from one of
// them crosses only finite edges, so it settles nothing outside that
// set, and Dijkstra from any other vertex settles that vertex alone.
// So the subset answers every query the whole graph would, and a
// provider's tables are as small as its footprint.
//
// buildRouteTables fills every row on the worker pool before the
// probes run, each worker writing only the rows it claims; the probe
// kernel then reads plain slices.

// ispContext is the routing state of one transit provider.
type ispContext struct {
	name string
	// row weights the provider's ground-truth corridors by length and
	// excludes every other corridor.
	row []float64
	// nodes are the atlas cities on the provider's backbone.
	nodes []int
	// weight is the provider's share of transit (backbone size).
	weight float64
}

// transitProviders returns the routing state of every named provider
// with a ground-truth footprint, in names order.
func transitProviders(res *mapbuilder.Result, names []string) []*ispContext {
	var isps []*ispContext
	for _, name := range names {
		fp := res.Truth[name]
		if len(fp.Edges) == 0 {
			continue
		}
		row := make([]float64, res.Graph.NumEdges())
		for eid := range row {
			row[eid] = inf
			if fp.Edges[eid] {
				row[eid] = res.Atlas.Corridors[eid].LengthKm
			}
		}
		isps = append(isps, &ispContext{
			name:   name,
			row:    row,
			nodes:  fp.Nodes(res.Atlas),
			weight: float64(len(fp.Edges)),
		})
	}
	return isps
}

// noEdge marks a route-table entry without a parent edge: the source
// itself, or a destination the source cannot reach. Edge ids must stay
// below it.
const noEdge = math.MaxUint16

// routeTable holds the shortest-path trees of one weight row from
// every vertex the row can reach, as one flat slab of parent edges.
// A row is the tree graph.ShortestParents settles, so a walk returns
// per-pair ShortestPath's path node for node and edge for edge.
type routeTable struct {
	g   *graph.Graph
	row []float64 // the weight row; read only while the rows are built
	// verts are the table's vertices (the endpoints of the row's
	// finite-weight edges), ascending; index maps a graph vertex to
	// its position in verts, or -1 off the table.
	verts []int32
	index []int32
	// across[e] is the xor of a finite-weight edge's endpoint
	// positions, so a walk steps to the far end of e with one xor.
	across []int32
	// parent[s*len(verts)+d] is the edge by which verts[d] is reached
	// in the tree from verts[s], or noEdge.
	parent []uint16
}

// newRouteTable sizes the table of one weight row; buildRouteTables
// fills it.
func newRouteTable(g *graph.Graph, row []float64) *routeTable {
	if g.NumEdges() > noEdge {
		panic(fmt.Sprintf("traceroute: route tables hold edge ids below %d; the graph has %d edges", noEdge, g.NumEdges()))
	}
	t := &routeTable{g: g, row: row, index: make([]int32, g.NumVertices()), across: make([]int32, g.NumEdges())}
	onRow := make([]bool, g.NumVertices())
	for eid, w := range row {
		if !math.IsInf(w, 1) {
			e := g.Edge(eid)
			onRow[e.U], onRow[e.V] = true, true
		}
	}
	for v, on := range onRow {
		t.index[v] = -1
		if on {
			t.index[v] = int32(len(t.verts))
			t.verts = append(t.verts, int32(v))
		}
	}
	for eid, w := range row {
		if !math.IsInf(w, 1) {
			e := g.Edge(eid)
			t.across[eid] = t.index[e.U] ^ t.index[e.V]
		}
	}
	t.parent = make([]uint16, len(t.verts)*len(t.verts))
	return t
}

// rowScratch is one worker's scratch for building table rows.
type rowScratch struct {
	ws     *graph.Workspace
	parent []int32
}

func newRowScratch() *rowScratch { return &rowScratch{ws: graph.NewWorkspace()} }

// fillRow settles the tree from verts[s] and stores its parent edges.
func (t *routeTable) fillRow(sc *rowScratch, s int) {
	sc.parent = t.g.ShortestParents(sc.ws, int(t.verts[s]), t.row, sc.parent)
	row := t.parent[s*len(t.verts) : (s+1)*len(t.verts)]
	for d, v := range t.verts {
		row[d] = noEdge
		if e := sc.parent[v]; e >= 0 {
			row[d] = uint16(e)
		}
	}
}

// buildRouteTables fills every row of the tables on the worker pool
// (one workspace per worker) and returns the number of rows built.
// Rows are disjoint and pure functions of their table and source, so
// the tables are identical at any worker count.
func buildRouteTables(ctx context.Context, workers int, tables []*routeTable) (int, error) {
	type rowJob struct {
		t *routeTable
		s int
	}
	var jobs []rowJob
	for _, t := range tables {
		for s := range t.verts {
			jobs = append(jobs, rowJob{t, s})
		}
	}
	err := par.RunWith(ctx, len(jobs), workers, newRowScratch, func(i int, sc *rowScratch) {
		jobs[i].t.fillRow(sc, jobs[i].s)
	})
	return len(jobs), err
}

// locate returns src's row and dst's position in it; ok=false when
// dst is unreachable from src (src != dst).
func (t *routeTable) locate(src, dst int) (row []uint16, d int, ok bool) {
	s, di := t.index[src], t.index[dst]
	if s < 0 || di < 0 {
		return nil, 0, false
	}
	n := len(t.verts)
	row = t.parent[int(s)*n : int(s+1)*n]
	return row, int(di), row[di] != noEdge
}

// appendEdges appends the edge ids of the shortest src-dst path, in
// path order, to buf (ok=false and buf unchanged when dst is
// unreachable).
func (t *routeTable) appendEdges(buf []int, src, dst int) ([]int, bool) {
	if src == dst {
		return buf, true
	}
	row, d, ok := t.locate(src, dst)
	if !ok {
		return buf, false
	}
	start := len(buf)
	for e := row[d]; e != noEdge; e = row[d] {
		buf = append(buf, int(e))
		d ^= int(t.across[e])
	}
	slices.Reverse(buf[start:])
	return buf, true
}

// appendNodes appends the vertices of the shortest src-dst path,
// source first, to buf (ok=false and buf unchanged when dst is
// unreachable).
func (t *routeTable) appendNodes(buf []int, src, dst int) ([]int, bool) {
	if src == dst {
		return append(buf, src), true
	}
	row, d, ok := t.locate(src, dst)
	if !ok {
		return buf, false
	}
	start := len(buf)
	buf = append(buf, dst)
	for e := row[d]; e != noEdge; e = row[d] {
		d ^= int(t.across[e])
		buf = append(buf, int(t.verts[d]))
	}
	slices.Reverse(buf[start:])
	return buf, true
}

// cityDistances holds the great-circle distance of every atlas city
// pair: km[from*n+to] is Cities[from].Loc.DistanceKm(Cities[to].Loc),
// in that argument order, so a read returns the float64 the call
// would.
type cityDistances struct {
	n  int
	km []float64
}

func newCityDistances(a *atlas.Atlas) *cityDistances {
	n := len(a.Cities)
	d := &cityDistances{n: n, km: make([]float64, n*n)}
	for from := range a.Cities {
		for to := range a.Cities {
			d.km[from*n+to] = a.Cities[from].Loc.DistanceKm(a.Cities[to].Loc)
		}
	}
	return d
}

func (d *cityDistances) at(from, to int) float64 { return d.km[from*d.n+to] }

// cityTrig holds one city's coordinates in radians and the sines and
// cosines geo.Midpoint and Point.DistanceKm take of them.
type cityTrig struct {
	lat, lon                       float64
	sinLat, cosLat, sinLon, cosLon float64
}

// truthRoutes resolves the ground-truth transit paths probes follow.
type truthRoutes struct {
	a       *atlas.Atlas
	dist    *cityDistances
	isps    []*ispContext
	nCities int
	// nearest[isp*nCities+city] is the provider's backbone city
	// closest to city.
	nearest []int32
	// hubs[i1*len(isps)+i2], i1 < i2, are the pair's peering cities.
	hubs   [][]int
	trig   []cityTrig
	tables []*routeTable // [isp], over the corridor graph
}

func newTruthRoutes(a *atlas.Atlas, g *graph.Graph, dist *cityDistances, isps []*ispContext) *truthRoutes {
	n := len(a.Cities)
	r := &truthRoutes{
		a: a, dist: dist, isps: isps, nCities: n,
		nearest: make([]int32, len(isps)*n),
		hubs:    make([][]int, len(isps)*len(isps)),
		trig:    make([]cityTrig, n),
		tables:  make([]*routeTable, len(isps)),
	}
	onBackbone := make([]bool, n)
	for i2, c2 := range isps {
		for _, city := range c2.nodes {
			onBackbone[city] = true
		}
		for i1 := 0; i1 < i2; i1++ {
			r.hubs[i1*len(isps)+i2] = peerHubs(a, isps[i1].nodes, onBackbone)
		}
		for _, city := range c2.nodes {
			onBackbone[city] = false
		}
	}
	bestD := make([]float64, n)
	for i, c := range isps {
		// Scanning the backbone in order and keeping only strictly
		// closer cities resolves a distance tie to the first one.
		nearest := r.nearest[i*n : (i+1)*n]
		for city := range bestD {
			nearest[city], bestD[city] = -1, 1e18
		}
		for _, b := range c.nodes {
			for city, d := range dist.km[b*n : (b+1)*n] {
				if d < bestD[city] {
					nearest[city], bestD[city] = int32(b), d
				}
			}
		}
		r.tables[i] = newRouteTable(g, c.row)
	}
	for i, city := range a.Cities {
		lat, lon := radians(city.Loc.Lat), radians(city.Loc.Lon)
		r.trig[i] = cityTrig{
			lat: lat, lon: lon,
			sinLat: math.Sin(lat), cosLat: math.Cos(lat),
			sinLon: math.Sin(lon), cosLon: math.Cos(lon),
		}
	}
	return r
}

// peerHubs returns where two providers hand traffic off: their
// biggest mutual markets, at most four, by population (then city id).
// The ranking is a total order, so the result does not depend on
// which provider is nodes and which is in2.
func peerHubs(a *atlas.Atlas, nodes []int, in2 []bool) []int {
	var common []int
	for _, n := range nodes {
		if in2[n] {
			common = append(common, n)
		}
	}
	sort.Slice(common, func(x, y int) bool {
		px, py := a.Cities[common[x]].Population, a.Cities[common[y]].Population
		if px != py {
			return px > py
		}
		return common[x] < common[y]
	})
	if len(common) > 4 {
		common = common[:4]
	}
	return common
}

// nearestBackbone returns the provider's backbone city closest to city
// (the first in backbone order on a distance tie).
func (r *truthRoutes) nearestBackbone(isp, city int) int {
	return int(r.nearest[isp*r.nCities+city])
}

// peerHub returns the atlas city where the two providers hand traffic
// off: among their peering hubs, the one closest to the src-dst
// great-circle midpoint. Returns -1 if the footprints are disjoint.
//
// It evaluates geo.Midpoint and Point.DistanceKm term for term, in
// their operation order, but reads each city's trig terms and the
// src-dst distance from the campaign's tables, so every float64 (and
// with it the choice) is the one those calls produce.
func (r *truthRoutes) peerHub(i1, i2, src, dst int) int {
	if i1 > i2 {
		i1, i2 = i2, i1
	}
	hubs := r.hubs[i1*len(r.isps)+i2]
	if len(hubs) == 0 {
		return -1
	}
	midLat, midLon := r.midpoint(src, dst)
	lat2, lon2 := radians(midLat), radians(midLon)
	cosLat2 := math.Cos(lat2)
	best, bestD := -1, math.Inf(1)
	for _, h := range hubs {
		ht := &r.trig[h]
		s1 := math.Sin((lat2 - ht.lat) / 2)
		s2 := math.Sin((lon2 - ht.lon) / 2)
		hv := s1*s1 + ht.cosLat*cosLat2*s2*s2
		if hv > 1 {
			hv = 1
		}
		if d := 2 * geo.EarthRadiusKm * math.Asin(math.Sqrt(hv)); d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

// midpoint is geo.Midpoint(Cities[src].Loc, Cities[dst].Loc), in
// degrees.
func (r *truthRoutes) midpoint(src, dst int) (lat, lon float64) {
	p, q := r.a.Cities[src].Loc, r.a.Cities[dst].Loc
	if p == q {
		return p.Lat, p.Lon
	}
	d := r.dist.at(src, dst) / geo.EarthRadiusKm
	if d == 0 {
		return p.Lat, p.Lon
	}
	t1, t2 := &r.trig[src], &r.trig[dst]
	// Intermediate weighs p by sin((1-f)d)/sin(d) and q by
	// sin(fd)/sin(d); at f = 0.5 the two are the same float64.
	w := math.Sin(0.5*d) / math.Sin(d)
	x := w*t1.cosLat*t1.cosLon + w*t2.cosLat*t2.cosLon
	y := w*t1.cosLat*t1.sinLon + w*t2.cosLat*t2.sinLon
	z := w*t1.sinLat + w*t2.sinLat
	return degrees(math.Atan2(z, math.Sqrt(x*x+y*y))), degrees(math.Atan2(y, x))
}

// radians and degrees are geo's conversions, in its operation order.
func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// appendPath appends the provider's shortest ground-truth path between
// two backbone cities, as its city sequence, to buf; ok=false and buf
// unchanged when they are not connected by at least one corridor hop.
func (r *truthRoutes) appendPath(buf []int, isp, from, to int) ([]int, bool) {
	if out, ok := r.tables[isp].appendNodes(buf, from, to); ok && len(out)-len(buf) > 1 {
		return out, true
	}
	return buf, false
}

// overlayRoutes maps visible hop pairs onto the conduits of a
// published map (the built map, or a scenario's perturbed view of it)
// and scores them against ground truth, for one campaign or one
// OverlayParsed call. Providers are decoder indices (domainTable), so
// every provider a hop name can carry has a row and no query hashes a
// name.
type overlayRoutes struct {
	cityNode []int // atlas city -> map node, or -1
	// tenant[isp] is the route table of the provider's published
	// tenancy, nil when it publishes no conduit at all.
	tenant []*routeTable
	lit    *routeTable
	// truth[isp*conduits+cid] reports whether the provider occupies the
	// conduit's corridor in ground truth.
	truth    []bool
	conduits int
}

func newOverlayRoutes(res *mapbuilder.Result, pub fiber.View) *overlayRoutes {
	mg := fiber.Graph(pub)
	nISPs := len(domains.isps)
	r := &overlayRoutes{
		cityNode: make([]int, len(res.Atlas.Cities)),
		tenant:   make([]*routeTable, nISPs),
		lit:      newRouteTable(mg, mg.Weights(fiber.LitWeight(pub), nil)),
		truth:    make([]bool, nISPs*pub.NumConduits()),
		conduits: pub.NumConduits(),
	}
	for i := range r.cityNode {
		r.cityNode[i] = -1
	}
	for _, n := range res.Map.Nodes {
		if n.AtlasCity >= 0 {
			r.cityNode[n.AtlasCity] = int(n.ID)
		}
	}
	for isp, name := range domains.isps {
		row := mg.Weights(fiber.TenantWeight(pub, name), nil)
		for _, w := range row {
			if !math.IsInf(w, 1) {
				r.tenant[isp] = newRouteTable(mg, row)
				break
			}
		}
		// Ground truth follows corridors: a conduit a view adds
		// follows none, so no provider occupies it.
		edges := res.Truth[name].Edges
		for cid := range res.Map.Conduits {
			if corridor := res.Map.Conduits[cid].Corridor; corridor >= 0 {
				r.truth[isp*r.conduits+cid] = edges[corridor]
			}
		}
	}
	return r
}

// tables lists the overlay's route tables.
func (r *overlayRoutes) tables() []*routeTable {
	out := []*routeTable{r.lit}
	for _, t := range r.tenant {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// correct reports whether the provider occupies conduit cid's corridor
// in ground truth: whether an attribution of its probe there is right.
func (r *overlayRoutes) correct(isp, cid int) bool {
	return r.truth[isp*r.conduits+cid]
}

// segment maps a visible hop pair onto published conduits: first over
// the provider's published footprint, then over any lit conduit (the
// provider may be absent from the published map entirely — that is
// how "additional ISPs" are discovered). It appends the conduits, in
// path order, to buf; ok=false means the segment cannot be attributed.
func (r *overlayRoutes) segment(buf []int, cityA, cityB, isp int) ([]int, bool) {
	na, nb := r.cityNode[cityA], r.cityNode[cityB]
	if na < 0 || nb < 0 {
		return buf, false
	}
	if t := r.tenant[isp]; t != nil {
		if out, ok := t.appendEdges(buf, na, nb); ok {
			return out, true
		}
	}
	return r.lit.appendEdges(buf, na, nb)
}
