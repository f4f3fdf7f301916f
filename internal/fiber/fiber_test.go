package fiber

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"intertubes/internal/geo"
	"intertubes/internal/graph"
)

func testMap(t *testing.T) (*Map, []NodeID, []ConduitID) {
	t.Helper()
	m := NewMap()
	a := m.AddNode("Denver", "CO", geo.Point{Lat: 39.74, Lon: -104.99}, 715000, 1)
	b := m.AddNode("Salt Lake City", "UT", geo.Point{Lat: 40.76, Lon: -111.89}, 200000, 2)
	c := m.AddNode("Cheyenne", "WY", geo.Point{Lat: 41.14, Lon: -104.82}, 65000, 3)
	c1 := m.EnsureConduit(a, b, 0, geo.GreatCircle(m.Node(a).Loc, m.Node(b).Loc, 4))
	c2 := m.EnsureConduit(a, c, 1, geo.GreatCircle(m.Node(a).Loc, m.Node(c).Loc, 4))
	c3 := m.EnsureConduit(b, c, 2, geo.GreatCircle(m.Node(b).Loc, m.Node(c).Loc, 4))
	return m, []NodeID{a, b, c}, []ConduitID{c1, c2, c3}
}

func TestAddNodeIdempotent(t *testing.T) {
	m := NewMap()
	a := m.AddNode("Denver", "CO", geo.Point{}, 1, -1)
	b := m.AddNode("Denver", "CO", geo.Point{}, 2, -1)
	if a != b {
		t.Errorf("duplicate add returned new id %d != %d", b, a)
	}
	if len(m.Nodes) != 1 {
		t.Errorf("nodes = %d, want 1", len(m.Nodes))
	}
	if id, ok := m.NodeByKey("Denver,CO"); !ok || id != a {
		t.Errorf("NodeByKey = %v,%v", id, ok)
	}
}

func TestEnsureConduitDedupe(t *testing.T) {
	m, nodes, conduits := testMap(t)
	again := m.EnsureConduit(nodes[0], nodes[1], 0, nil)
	if again != conduits[0] {
		t.Errorf("same pair+corridor should dedupe: %d != %d", again, conduits[0])
	}
	// Reversed endpoints also dedupe.
	rev := m.EnsureConduit(nodes[1], nodes[0], 0, nil)
	if rev != conduits[0] {
		t.Errorf("reversed pair should dedupe: %d != %d", rev, conduits[0])
	}
	// A different corridor creates a parallel conduit.
	par := m.EnsureConduit(nodes[0], nodes[1], 9, geo.GreatCircle(m.Node(nodes[0]).Loc, m.Node(nodes[1]).Loc, 8))
	if par == conduits[0] {
		t.Error("different corridor must not dedupe")
	}
	if got := m.ConduitsBetween(nodes[0], nodes[1]); len(got) != 2 {
		t.Errorf("ConduitsBetween = %v, want 2 parallel conduits", got)
	}
}

func TestEnsureConduitPanicsOnSelfLoop(t *testing.T) {
	m, nodes, _ := testMap(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.EnsureConduit(nodes[0], nodes[0], 0, nil)
}

func TestTenancy(t *testing.T) {
	m, _, conduits := testMap(t)
	if !m.AddTenant(conduits[0], "Level 3") {
		t.Error("first add should succeed")
	}
	if m.AddTenant(conduits[0], "Level 3") {
		t.Error("duplicate add should report false")
	}
	m.AddTenant(conduits[0], "AT&T")
	m.AddTenant(conduits[1], "Level 3")

	c := m.Conduit(conduits[0])
	if !c.HasTenant("Level 3") || !c.HasTenant("AT&T") || c.HasTenant("Sprint") {
		t.Errorf("tenants = %v", c.Tenants)
	}
	if c.SharingDegree() != 2 {
		t.Errorf("sharing = %d", c.SharingDegree())
	}
	// Tenants stay sorted.
	if c.Tenants[0] != "AT&T" || c.Tenants[1] != "Level 3" {
		t.Errorf("tenants not sorted: %v", c.Tenants)
	}
	if got := m.ConduitsOf("Level 3"); len(got) != 2 {
		t.Errorf("Level 3 conduits = %v", got)
	}
	if got := m.ISPs(); len(got) != 2 || got[0] != "AT&T" {
		t.Errorf("ISPs = %v", got)
	}
	if m.LinkCount() != 3 {
		t.Errorf("links = %d, want 3", m.LinkCount())
	}
}

func TestHiddenTenants(t *testing.T) {
	m, _, conduits := testMap(t)
	m.AddTenant(conduits[0], "Level 3")
	if !m.AddHiddenTenant(conduits[0], "SoftLayer") {
		t.Error("hidden add should succeed")
	}
	if m.AddHiddenTenant(conduits[0], "SoftLayer") {
		t.Error("duplicate hidden add should report false")
	}
	// A published tenant cannot also be hidden.
	if m.AddHiddenTenant(conduits[0], "Level 3") {
		t.Error("published tenant must not become hidden")
	}
	if c := m.Conduit(conduits[0]); len(c.Tenants) != 1 || c.Tenants[0] != "Level 3" || len(c.Hidden) != 1 || c.Hidden[0] != "SoftLayer" {
		t.Errorf("tenants %v, hidden %v", c.Tenants, c.Hidden)
	}
	// Hidden tenants do not count as links or published tenants.
	if m.LinkCount() != 1 {
		t.Errorf("links = %d, want 1", m.LinkCount())
	}
	if m.Conduit(conduits[0]).HasTenant("SoftLayer") {
		t.Error("hidden tenant must not be published")
	}
}

func TestNodesOf(t *testing.T) {
	m, nodes, conduits := testMap(t)
	m.AddTenant(conduits[0], "Level 3") // Denver-SLC
	m.AddTenant(conduits[2], "Level 3") // SLC-Cheyenne
	got := m.NodesOf("Level 3")
	if len(got) != 3 {
		t.Fatalf("NodesOf = %v", got)
	}
	for i, want := range nodes {
		if got[i] != want {
			t.Errorf("NodesOf[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestStats(t *testing.T) {
	m, _, conduits := testMap(t)
	isps := []string{"A", "B", "C", "D"}
	for _, isp := range isps {
		m.AddTenant(conduits[0], isp)
	}
	m.AddTenant(conduits[1], "A")
	m.AddTenant(conduits[1], "B")
	// conduits[2] stays empty.
	s := m.Stats()
	if s.Nodes != 3 || s.Conduits != 2 || s.Links != 6 || s.ISPs != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.SharedByGE2 != 2 || s.SharedByGE3 != 1 || s.SharedByGE4 != 1 {
		t.Errorf("sharing counts = %+v", s)
	}
	if s.MaxSharing != 4 || s.SharedByGT17 != 0 {
		t.Errorf("max sharing = %+v", s)
	}
	if math.Abs(s.AvgTenancy-3.0) > 1e-9 {
		t.Errorf("avg tenancy = %v, want 3", s.AvgTenancy)
	}
}

func TestGraphAndWeights(t *testing.T) {
	m, nodes, conduits := testMap(t)
	m.AddTenant(conduits[0], "Level 3") // Denver-SLC
	m.AddTenant(conduits[1], "Level 3") // Denver-Cheyenne
	m.AddTenant(conduits[2], "Sprint")  // SLC-Cheyenne

	g := Graph(m)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("graph = %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	// Level 3 cannot use the Sprint-only conduit: SLC->Cheyenne must
	// route via Denver.
	p, ok := g.ShortestPath(graph.NewWorkspace(), int(nodes[1]), int(nodes[2]), TenantWeight(m, "Level 3"))
	if !ok || p.Hops() != 2 {
		t.Errorf("Level 3 path = %+v, %v", p, ok)
	}
	// Under LitWeight the direct conduit is usable.
	p, ok = g.ShortestPath(graph.NewWorkspace(), int(nodes[1]), int(nodes[2]), LitWeight(m))
	if !ok || p.Hops() != 1 {
		t.Errorf("lit path = %+v, %v", p, ok)
	}
}

func TestLitWeightExcludesEmptyConduits(t *testing.T) {
	m, nodes, _ := testMap(t)
	// No tenants anywhere: all conduits unlit.
	g := Graph(m)
	if _, ok := g.ShortestPath(graph.NewWorkspace(), int(nodes[0]), int(nodes[1]), LitWeight(m)); ok {
		t.Error("path should not exist over unlit conduits")
	}
}

func TestConduitOther(t *testing.T) {
	m, nodes, conduits := testMap(t)
	c := m.Conduit(conduits[0])
	if c.Other(nodes[0]) != nodes[1] || c.Other(nodes[1]) != nodes[0] {
		t.Error("Other endpoints wrong")
	}
}

func TestGeoJSON(t *testing.T) {
	m, _, conduits := testMap(t)
	m.AddTenant(conduits[0], "Level 3")
	raw, err := m.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Geometry struct {
				Type string `json:"type"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Type != "FeatureCollection" {
		t.Errorf("type = %q", doc.Type)
	}
	points, lines := 0, 0
	for _, f := range doc.Features {
		switch f.Geometry.Type {
		case "Point":
			points++
		case "LineString":
			lines++
		}
	}
	// 3 nodes, and only the single tenanted conduit.
	if points != 3 || lines != 1 {
		t.Errorf("points=%d lines=%d, want 3,1", points, lines)
	}
}

func TestLayerGeoJSON(t *testing.T) {
	raw, err := LayerGeoJSON("road", []geo.Polyline{
		geo.GreatCircle(geo.Point{Lat: 40, Lon: -105}, geo.Point{Lat: 41, Lon: -104}, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("invalid JSON")
	}
}

func TestInsertSortedProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		var xs []string
		for _, r := range raw {
			s := string(rune('a' + r%26))
			xs, _ = insertSorted(xs, s)
		}
		for i := 1; i < len(xs); i++ {
			if xs[i-1] >= xs[i] {
				return false // must be strictly sorted (set semantics)
			}
		}
		for _, x := range xs {
			if !containsSorted(xs, x) {
				return false
			}
		}
		return !containsSorted(xs, "0") // digit never inserted
	}, nil); err != nil {
		t.Error(err)
	}
}
