package traceroute

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/mapbuilder"
)

// routes_test.go checks the route tables against the per-pair
// Dijkstra queries they replaced: the oracles below are those queries,
// run fresh for every pair.

func sortedTruthNames(res *mapbuilder.Result) []string {
	names := make([]string, 0, len(res.Truth))
	for name := range res.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// truthPathOracle is the per-pair ground-truth route.
func truthPathOracle(res *mapbuilder.Result, isp string, from, to int) (graph.Path, bool) {
	edges := res.Truth[isp].Edges
	p, _ := res.Graph.ShortestPath(graph.NewWorkspace(), from, to, func(eid int) float64 {
		if !edges[eid] {
			return inf
		}
		return res.Atlas.Corridors[eid].LengthKm
	})
	return p, len(p.Edges) > 0
}

// segmentOracle is the per-pair overlay: tenancy first, then any lit
// conduit.
func segmentOracle(res *mapbuilder.Result, cityNode []int, cityA, cityB int, isp string) ([]int, bool) {
	na, nb := cityNode[cityA], cityNode[cityB]
	if na < 0 || nb < 0 {
		return nil, false
	}
	mg := fiber.Graph(res.Map)
	path, ok := mg.ShortestPath(graph.NewWorkspace(), na, nb, fiber.TenantWeight(res.Map, isp))
	if !ok {
		path, ok = mg.ShortestPath(graph.NewWorkspace(), na, nb, fiber.LitWeight(res.Map))
	}
	return path.Edges, ok
}

// peerHubsOracle intersects the two backbones through a map and ranks
// the mutual cities by population, then id.
func peerHubsOracle(res *mapbuilder.Result, c1, c2 *ispContext) []int {
	in2 := map[int]bool{}
	for _, n := range c2.nodes {
		in2[n] = true
	}
	var common []int
	for _, n := range c1.nodes {
		if in2[n] {
			common = append(common, n)
		}
	}
	sort.Slice(common, func(x, y int) bool {
		px, py := res.Atlas.Cities[common[x]].Population, res.Atlas.Cities[common[y]].Population
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

// campaignRoutes builds and fills a campaign's route tables over res.
func campaignRoutes(t *testing.T, res *mapbuilder.Result) (*truthRoutes, *overlayRoutes) {
	t.Helper()
	isps := transitProviders(res, sortedTruthNames(res))
	truth := newTruthRoutes(res.Atlas, res.Graph, newCityDistances(res.Atlas), isps)
	overlay := newOverlayRoutes(res, res.Map)
	if _, err := buildRouteTables(context.Background(), 2, slices.Concat(truth.tables, overlay.tables())); err != nil {
		t.Fatal(err)
	}
	return truth, overlay
}

// nearestOracle scans the backbone for the city closest to city, the
// first in backbone order on a tie.
func nearestOracle(res *mapbuilder.Result, c *ispContext, city int) int {
	best, bestD := -1, math.Inf(1)
	for _, n := range c.nodes {
		if d := res.Atlas.Cities[n].Loc.DistanceKm(res.Atlas.Cities[city].Loc); d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

func TestTruthRoutesMatchPerPair(t *testing.T) {
	res, _ := campaign(t)
	r, _ := campaignRoutes(t, res)
	isps := r.isps
	rng := rand.New(rand.NewSource(4))
	nCities := len(res.Atlas.Cities)
	for q := 0; q < 3000; q++ {
		i := rng.Intn(len(isps))
		nodes := isps[i].nodes
		from, to := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if q%5 == 0 {
			to = rng.Intn(nCities) // off-backbone destinations are unreachable
		}
		if q%7 == 0 {
			from = rng.Intn(nCities) // an off-backbone source reaches only itself
		}
		got, gok := r.appendPath([]int{-1}, i, from, to)
		want, wok := truthPathOracle(res, isps[i].name, from, to)
		if gok != wok || got[0] != -1 || (gok && !reflect.DeepEqual(got[1:], want.Nodes)) || (!gok && len(got) != 1) {
			t.Fatalf("%s %d->%d: table %v (ok=%v), per-pair %+v (ok=%v)", isps[i].name, from, to, got, gok, want, wok)
		}
		city := rng.Intn(nCities)
		if got, want := r.nearestBackbone(i, city), nearestOracle(res, isps[i], city); got != want {
			t.Fatalf("nearestBackbone(%d, %d) = %d, want %d", i, city, got, want)
		}
		i2 := rng.Intn(len(isps))
		if i2 == i {
			continue
		}
		wantHubs := peerHubsOracle(res, isps[i], isps[i2])
		if got := r.hubs[min(i, i2)*len(isps)+max(i, i2)]; !reflect.DeepEqual(got, wantHubs) {
			t.Fatalf("hubs(%d,%d) = %v, want %v", i, i2, got, wantHubs)
		}
		if (r.peerHub(i, i2, city, to) < 0) != (len(wantHubs) == 0) {
			t.Fatalf("peerHub(%d,%d) disagrees with hub set %v", i, i2, wantHubs)
		}
	}
}

// TestPeerHubMatchesGeo pins peerHub's table-driven trigonometry to the
// geo calls it replaces: for 8 provider pairs with a real choice of
// hubs, every (src, dst) city pair must pick the hub geo.Midpoint and
// Point.DistanceKm pick.
func TestPeerHubMatchesGeo(t *testing.T) {
	res, _ := campaign(t)
	isps := transitProviders(res, sortedTruthNames(res))
	r := newTruthRoutes(res.Atlas, res.Graph, newCityDistances(res.Atlas), isps)
	cities := res.Atlas.Cities
	pairs := 0
	for i1 := 0; i1 < len(isps) && pairs < 8; i1++ {
		for i2 := i1 + 1; i2 < len(isps) && pairs < 8; i2 += 3 {
			hubs := r.hubs[i1*len(isps)+i2]
			if len(hubs) < 3 {
				continue
			}
			pairs++
			for src := range cities {
				for dst := range cities {
					mid := geo.Midpoint(cities[src].Loc, cities[dst].Loc)
					want, wantD := -1, math.Inf(1)
					for _, h := range hubs {
						if d := cities[h].Loc.DistanceKm(mid); d < wantD {
							want, wantD = h, d
						}
					}
					if got := r.peerHub(i2, i1, src, dst); got != want {
						t.Fatalf("peerHub(%s, %s, %d, %d) = %d, geo picks %d", isps[i1].name, isps[i2].name, src, dst, got, want)
					}
				}
			}
		}
	}
	if pairs < 8 {
		t.Fatalf("only %d provider pairs with three or more hubs", pairs)
	}
}

// TestOverlayRoutesMatchPerPair covers every provider the hop-name
// decoder can return, including providers that publish no conduit at
// all, and the ground-truth scoring row of each.
func TestOverlayRoutesMatchPerPair(t *testing.T) {
	res, _ := campaign(t)
	_, r := campaignRoutes(t, res)
	sc := newProbeScratch()
	rng := rand.New(rand.NewSource(8))
	nCities := len(res.Atlas.Cities)
	for q := 0; q < 4000; q++ {
		a, b := rng.Intn(nCities), rng.Intn(nCities)
		isp := rng.Intn(len(domains.isps))
		var ok bool
		sc.edges, ok = r.segment(sc.edges[:0], a, b, isp)
		want, wok := segmentOracle(res, r.cityNode, a, b, domains.isps[isp])
		if ok != wok || (ok && !equalInts(sc.edges, want)) {
			t.Fatalf("%q %d->%d: tables %v (ok=%v), per-pair %v (ok=%v)", domains.isps[isp], a, b, sc.edges, ok, want, wok)
		}
		for _, cid := range sc.edges {
			corridor := res.Map.Conduits[cid].Corridor
			if got, want := r.correct(isp, cid), res.Truth[domains.isps[isp]].Edges[corridor]; got != want {
				t.Fatalf("%q conduit %d: scored %v, ground truth %v", domains.isps[isp], cid, got, want)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouteTablesCoverSettledVertices is the invariant that lets a
// route table cover only part of its graph: Dijkstra over a table's
// row from one of its vertices settles only table vertices, and from
// any other vertex settles that vertex alone — for every truth,
// tenancy and lit table, on two seeds' maps.
func TestRouteTablesCoverSettledVertices(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		res := mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: seed})
		truth := newTruthRoutes(res.Atlas, res.Graph, newCityDistances(res.Atlas), transitProviders(res, sortedTruthNames(res)))
		ws := graph.NewWorkspace()
		var dist []float64
		rows := 0
		for _, table := range slices.Concat(truth.tables, newOverlayRoutes(res, res.Map).tables()) {
			wf := func(eid int) float64 { return table.row[eid] }
			for v := 0; v < table.g.NumVertices(); v++ {
				dist = table.g.ShortestDistances(ws, v, wf, dist)
				onTable := table.index[v] >= 0
				for u, d := range dist {
					if math.IsInf(d, 1) {
						continue
					}
					if onTable && table.index[u] < 0 {
						t.Fatalf("seed %d: the tree from table vertex %d settles %d, off the table", seed, v, u)
					}
					if !onTable && u != v {
						t.Fatalf("seed %d: the tree from off-table vertex %d settles %d", seed, v, u)
					}
				}
				if onTable {
					rows++
				}
			}
		}
		if rows == 0 {
			t.Fatalf("seed %d: no table rows checked", seed)
		}
	}
}

// TestRouteTableEdgeLimit: parent edges are uint16 with noEdge as the
// sentinel, so a graph may have at most noEdge edges; the last id a
// table can hold must still come back out of a walk.
func TestRouteTableEdgeLimit(t *testing.T) {
	for _, edges := range []int{noEdge, noEdge + 1} {
		g := graph.New(2)
		for e := 0; e < edges-1; e++ {
			g.AddEdge(0, 1, 2)
		}
		last := g.AddEdge(0, 1, 1)
		var table *routeTable
		func() {
			defer func() {
				if p := recover(); (p != nil) != (edges > noEdge) {
					t.Errorf("%d edges: newRouteTable panic = %v", edges, p)
				}
			}()
			table = newRouteTable(g, g.Weights(nil, nil))
		}()
		if table == nil {
			continue
		}
		if _, err := buildRouteTables(context.Background(), 1, []*routeTable{table}); err != nil {
			t.Fatal(err)
		}
		if got, ok := table.appendEdges(nil, 1, 0); !ok || !equalInts(got, []int{last}) {
			t.Errorf("%d edges: path 1->0 = %v (ok=%v), want [%d]", edges, got, ok, last)
		}
	}
}
