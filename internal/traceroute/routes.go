package traceroute

import (
	"math"
	"sort"
	"sync/atomic"

	"intertubes/internal/atlas"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/mapbuilder"
)

// routes.go holds the route tables of one campaign. Every route a
// probe needs is a pure function of the immutable atlas and published
// map, so the tables resolve each route once and keep it for the rest
// of the campaign:
//
//   - nearest backbone city per (provider, city), dense;
//   - peering hubs per provider pair, dense;
//   - one weight row per provider: its ground-truth corridors for
//     synthesis, its published tenancy for the overlay, plus one row
//     of every lit conduit;
//   - one ground-truth occupancy row per provider over the published
//     conduits, which attributions are scored against;
//   - one shortest-path tree per (row, source), built on first use.
//     Every truth-path and segment query walks a tree instead of
//     running its own Dijkstra.
//
// Lazy entries are published through atomics without a lock: a hit
// is one atomic load. Two workers that race on a missing entry may
// both build it; the builds are equal (each is a pure function of its
// key), the first one published is kept, and the other is dropped —
// so a race can change speed, never results.

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

// keepTree returns the tree in slot, building and publishing it on
// first use.
func keepTree(slot *atomic.Pointer[graph.Tree], build func() *graph.Tree) *graph.Tree {
	if t := slot.Load(); t != nil {
		return t
	}
	t := build()
	if !slot.CompareAndSwap(nil, t) {
		t = slot.Load() // a racing worker published an equal tree first
	}
	return t
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

// truthRoutes resolves the ground-truth transit paths probes follow.
type truthRoutes struct {
	a       *atlas.Atlas
	g       *graph.Graph // corridor graph; vertices are atlas cities
	dist    *cityDistances
	isps    []*ispContext
	nCities int
	// nearest[isp*nCities+city] holds the backbone city + 1, or 0
	// until first use.
	nearest []atomic.Int32
	// hubs[i1*len(isps)+i2], i1 < i2, are the pair's peering cities.
	hubs  [][]int
	trees []atomic.Pointer[graph.Tree] // [isp*nCities+source]
}

func newTruthRoutes(a *atlas.Atlas, g *graph.Graph, dist *cityDistances, isps []*ispContext) *truthRoutes {
	n := len(a.Cities)
	r := &truthRoutes{
		a: a, g: g, dist: dist, isps: isps, nCities: n,
		nearest: make([]atomic.Int32, len(isps)*n),
		hubs:    make([][]int, len(isps)*len(isps)),
		trees:   make([]atomic.Pointer[graph.Tree], len(isps)*n),
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
	slot := &r.nearest[isp*r.nCities+city]
	if v := slot.Load(); v != 0 {
		return int(v) - 1
	}
	best, bestD := -1, 1e18
	for _, n := range r.isps[isp].nodes {
		if d := r.dist.at(n, city); d < bestD {
			best, bestD = n, d
		}
	}
	slot.Store(int32(best + 1))
	return best
}

// peerHub returns the atlas city where the two providers hand traffic
// off: among their peering hubs, the one closest to the src-dst
// great-circle midpoint. Returns -1 if the footprints are disjoint.
func (r *truthRoutes) peerHub(i1, i2, src, dst int) int {
	if i1 > i2 {
		i1, i2 = i2, i1
	}
	hubs := r.hubs[i1*len(r.isps)+i2]
	if len(hubs) == 0 {
		return -1
	}
	mid := geo.Midpoint(r.a.Cities[src].Loc, r.a.Cities[dst].Loc)
	best, bestD := -1, math.Inf(1)
	for _, h := range hubs {
		if d := r.a.Cities[h].Loc.DistanceKm(mid); d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

// appendPath appends the provider's shortest ground-truth path between
// two backbone cities, as its city sequence, to buf; ok=false and buf
// unchanged when they are not connected by at least one corridor hop.
func (r *truthRoutes) appendPath(ws *graph.Workspace, buf []int, isp, from, to int) ([]int, bool) {
	tree := keepTree(&r.trees[isp*r.nCities+from], func() *graph.Tree {
		return r.g.ShortestTree(ws, from, r.isps[isp].row)
	})
	if out, ok := tree.AppendPathNodes(buf, to); ok && len(out)-len(buf) > 1 {
		return out, true
	}
	return buf, false
}

// overlayRoutes maps visible hop pairs onto published conduits and
// scores them against ground truth, for one campaign or one
// OverlayParsed call. Providers are decoder indices (domainTable), so
// every provider a hop name can carry has a row and no query hashes a
// name.
type overlayRoutes struct {
	mg       *graph.Graph // published map graph; vertices are fiber.NodeIDs
	cityNode []int        // atlas city -> map node, or -1
	// tenant[isp] is the provider's published-tenancy row, nil when it
	// publishes no conduit at all.
	tenant [][]float64
	lit    []float64
	// truth[isp*conduits+cid] reports whether the provider occupies the
	// conduit's corridor in ground truth.
	truth       []bool
	conduits    int
	tenantTrees []atomic.Pointer[graph.Tree] // [isp*nodes+node]
	litTrees    []atomic.Pointer[graph.Tree] // [node], shared by every provider
}

func newOverlayRoutes(res *mapbuilder.Result) *overlayRoutes {
	m := res.Map
	mg := m.Graph()
	nISPs := len(domains.isps)
	r := &overlayRoutes{
		mg:          mg,
		cityNode:    make([]int, len(res.Atlas.Cities)),
		tenant:      make([][]float64, nISPs),
		lit:         mg.Weights(m.LitWeight(), nil),
		truth:       make([]bool, nISPs*len(m.Conduits)),
		conduits:    len(m.Conduits),
		tenantTrees: make([]atomic.Pointer[graph.Tree], nISPs*mg.NumVertices()),
		litTrees:    make([]atomic.Pointer[graph.Tree], mg.NumVertices()),
	}
	for i := range r.cityNode {
		r.cityNode[i] = -1
	}
	for _, n := range m.Nodes {
		if n.AtlasCity >= 0 {
			r.cityNode[n.AtlasCity] = int(n.ID)
		}
	}
	for isp, name := range domains.isps {
		row := mg.Weights(m.TenantWeight(name), nil)
		for _, w := range row {
			if !math.IsInf(w, 1) {
				r.tenant[isp] = row
				break
			}
		}
		edges := res.Truth[name].Edges
		for cid := range m.Conduits {
			if corridor := m.Conduits[cid].Corridor; corridor >= 0 {
				r.truth[isp*r.conduits+cid] = edges[corridor]
			}
		}
	}
	return r
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
func (r *overlayRoutes) segment(ws *graph.Workspace, buf []int, cityA, cityB, isp int) ([]int, bool) {
	na, nb := r.cityNode[cityA], r.cityNode[cityB]
	if na < 0 || nb < 0 {
		return buf, false
	}
	if row := r.tenant[isp]; row != nil {
		tree := keepTree(&r.tenantTrees[isp*r.mg.NumVertices()+na], func() *graph.Tree {
			return r.mg.ShortestTree(ws, na, row)
		})
		if out, ok := tree.AppendPathEdges(buf, nb); ok {
			return out, true
		}
	}
	// A provider that publishes no conduit falls straight through: a
	// tree over its all-excluded row would reach na alone.
	return keepTree(&r.litTrees[na], func() *graph.Tree {
		return r.mg.ShortestTree(ws, na, r.lit)
	}).AppendPathEdges(buf, nb)
}
