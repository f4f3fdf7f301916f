package traceroute

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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
	mg := res.Map.Graph()
	path, ok := mg.ShortestPath(graph.NewWorkspace(), na, nb, res.Map.TenantWeight(isp))
	if !ok {
		path, ok = mg.ShortestPath(graph.NewWorkspace(), na, nb, res.Map.LitWeight())
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

func TestTruthRoutesMatchPerPair(t *testing.T) {
	res, _ := campaign(t)
	isps := transitProviders(res, sortedTruthNames(res))
	r := newTruthRoutes(res.Atlas, res.Graph, newCityDistances(res.Atlas), isps)
	ws := graph.NewWorkspace()
	rng := rand.New(rand.NewSource(4))
	nCities := len(res.Atlas.Cities)
	for q := 0; q < 3000; q++ {
		i := rng.Intn(len(isps))
		nodes := isps[i].nodes
		from, to := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if q%5 == 0 {
			to = rng.Intn(nCities) // off-backbone destinations are unreachable
		}
		got, gok := r.appendPath(ws, []int{-1}, i, from, to)
		want, wok := truthPathOracle(res, isps[i].name, from, to)
		if gok != wok || got[0] != -1 || (gok && !reflect.DeepEqual(got[1:], want.Nodes)) || (!gok && len(got) != 1) {
			t.Fatalf("%s %d->%d: tree %v (ok=%v), per-pair %+v (ok=%v)", isps[i].name, from, to, got, gok, want, wok)
		}
		city := rng.Intn(nCities)
		first := r.nearestBackbone(i, city)
		if again := r.nearestBackbone(i, city); again != first || first < 0 {
			t.Fatalf("nearestBackbone(%d, %d) = %d then %d", i, city, first, again)
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

// TestOverlayRoutesMatchPerPair covers every provider the hop-name
// decoder can return, including providers that publish no conduit at
// all, and the ground-truth scoring row of each.
func TestOverlayRoutesMatchPerPair(t *testing.T) {
	res, _ := campaign(t)
	r := newOverlayRoutes(res)
	sc := newProbeScratch()
	rng := rand.New(rand.NewSource(8))
	nCities := len(res.Atlas.Cities)
	for q := 0; q < 4000; q++ {
		a, b := rng.Intn(nCities), rng.Intn(nCities)
		isp := rng.Intn(len(domains.isps))
		var ok bool
		sc.edges, ok = r.segment(sc.ws, sc.edges[:0], a, b, isp)
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

// TestKeepTreeBuildsOncePerSlot: a serial reader builds each tree once;
// racing readers may each build, but all of them get the one
// published tree.
func TestKeepTreeBuildsOncePerSlot(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	var slot atomic.Pointer[graph.Tree]
	var builds atomic.Int32
	build := func() *graph.Tree {
		builds.Add(1)
		return g.ShortestTree(graph.NewWorkspace(), 0, nil)
	}
	first := keepTree(&slot, build)
	for i := 0; i < 10; i++ {
		if keepTree(&slot, build) != first {
			t.Fatal("a kept tree was replaced")
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("serial reads built %d trees, want 1", builds.Load())
	}

	var racing atomic.Pointer[graph.Tree]
	got := make([]*graph.Tree, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = keepTree(&racing, build)
		}()
	}
	wg.Wait()
	for _, tree := range got {
		if tree != racing.Load() {
			t.Fatal("a racing reader kept a tree that was not published")
		}
	}
}
