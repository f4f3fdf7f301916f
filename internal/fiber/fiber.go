// Package fiber defines the core model of the InterTubes study: the
// long-haul fiber map. A Map holds Nodes (cities where conduits
// terminate), Conduits (tubes between node pairs, each with a
// geographic path), and the tenancy relation recording which service
// providers have fiber in which conduit. A Link, in the paper's
// §2 terminology, is one (ISP, conduit) presence; conduit sharing is
// what the entire §4 risk analysis is about.
package fiber

import (
	"fmt"
	"math"
	"sort"

	"intertubes/internal/geo"
	"intertubes/internal/graph"
)

// NodeID identifies a node (city) in a Map.
type NodeID int

// ConduitID identifies a conduit in a Map.
type ConduitID int

// Node is a city where at least one long-haul conduit terminates.
type Node struct {
	ID         NodeID
	City       string
	State      string
	Loc        geo.Point
	Population int
	// AtlasCity is the index of this city in the source atlas, or -1.
	AtlasCity int
}

// Key returns the canonical "City,ST" identifier.
func (n Node) Key() string { return n.City + "," + n.State }

// Conduit is a physical tube between two nodes that can house the
// fiber of multiple providers.
type Conduit struct {
	ID       ConduitID
	A, B     NodeID
	Path     geo.Polyline
	LengthKm float64
	// Corridor is the index of the atlas corridor this conduit
	// follows, or -1 for conduits that follow no known corridor.
	Corridor int
	// Tenants are the providers known (from published maps or public
	// records) to have fiber in this conduit, sorted.
	Tenants []string
	// Hidden are providers that actually occupy the conduit but whose
	// presence is not in any published map — the paper discovered such
	// tenants only through traceroute naming hints (§4.3, Figure 9).
	Hidden []string
}

// Other returns the endpoint of c that is not n.
func (c *Conduit) Other(n NodeID) NodeID {
	if c.A == n {
		return c.B
	}
	return c.A
}

// HasTenant reports whether isp is a published tenant.
func (c *Conduit) HasTenant(isp string) bool { return containsSorted(c.Tenants, isp) }

// SharingDegree returns the number of published tenants.
func (c *Conduit) SharingDegree() int { return len(c.Tenants) }

func containsSorted(xs []string, x string) bool {
	i := sort.SearchStrings(xs, x)
	return i < len(xs) && xs[i] == x
}

func insertSorted(xs []string, x string) ([]string, bool) {
	i := sort.SearchStrings(xs, x)
	if i < len(xs) && xs[i] == x {
		return xs, false
	}
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs, true
}

type pairKey struct{ lo, hi NodeID }

func mkPair(a, b NodeID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b}
}

// Map is the long-haul fiber map: the paper's Figure 1 object.
type Map struct {
	Nodes    []Node
	Conduits []Conduit

	nodeByKey      map[string]NodeID
	conduitsByPair map[pairKey][]ConduitID
	byTenant       map[string][]ConduitID
	linkCount      int
}

// NewMap returns an empty map.
func NewMap() *Map {
	return &Map{
		nodeByKey:      make(map[string]NodeID),
		conduitsByPair: make(map[pairKey][]ConduitID),
		byTenant:       make(map[string][]ConduitID),
	}
}

// AddNode registers a city, returning the existing node if the
// "City,ST" key is already present.
func (m *Map) AddNode(city, state string, loc geo.Point, population, atlasCity int) NodeID {
	key := city + "," + state
	if id, ok := m.nodeByKey[key]; ok {
		return id
	}
	id := NodeID(len(m.Nodes))
	m.Nodes = append(m.Nodes, Node{
		ID: id, City: city, State: state, Loc: loc,
		Population: population, AtlasCity: atlasCity,
	})
	m.nodeByKey[key] = id
	return id
}

// NodeByKey looks a node up by "City,ST".
func (m *Map) NodeByKey(key string) (NodeID, bool) {
	id, ok := m.nodeByKey[key]
	return id, ok
}

// Node returns the node with the given id.
func (m *Map) Node(id NodeID) *Node { return &m.Nodes[id] }

// Conduit returns the conduit with the given id.
func (m *Map) Conduit(id ConduitID) *Conduit { return &m.Conduits[id] }

// EnsureConduit returns the conduit between a and b following the
// given atlas corridor, creating it if necessary. Conduits following
// different corridors between the same pair remain distinct (parallel
// deployments, e.g. Kansas City-Denver in the paper).
func (m *Map) EnsureConduit(a, b NodeID, corridor int, path geo.Polyline) ConduitID {
	if a == b {
		panic(fmt.Sprintf("fiber: conduit endpoints equal (%d)", a))
	}
	pk := mkPair(a, b)
	for _, cid := range m.conduitsByPair[pk] {
		if m.Conduits[cid].Corridor == corridor {
			return cid
		}
	}
	id := ConduitID(len(m.Conduits))
	m.Conduits = append(m.Conduits, Conduit{
		ID: id, A: a, B: b, Path: path,
		LengthKm: path.LengthKm(), Corridor: corridor,
	})
	m.conduitsByPair[pk] = append(m.conduitsByPair[pk], id)
	return id
}

// ConduitsBetween returns the conduits (possibly parallel) directly
// connecting a and b.
func (m *Map) ConduitsBetween(a, b NodeID) []ConduitID {
	out := m.conduitsByPair[mkPair(a, b)]
	cp := make([]ConduitID, len(out))
	copy(cp, out)
	return cp
}

// AddTenant records isp's published presence in conduit cid. It
// returns false if the tenancy was already recorded.
func (m *Map) AddTenant(cid ConduitID, isp string) bool {
	c := &m.Conduits[cid]
	var added bool
	c.Tenants, added = insertSorted(c.Tenants, isp)
	if added {
		m.byTenant[isp] = append(m.byTenant[isp], cid)
		m.linkCount++
	}
	return added
}

// AddHiddenTenant records an unpublished tenancy (visible to the
// traceroute overlay but not to the published risk matrix).
func (m *Map) AddHiddenTenant(cid ConduitID, isp string) bool {
	c := &m.Conduits[cid]
	if containsSorted(c.Tenants, isp) {
		return false
	}
	var added bool
	c.Hidden, added = insertSorted(c.Hidden, isp)
	return added
}

// ISPs returns the published tenants across the map, sorted.
func (m *Map) ISPs() []string {
	out := make([]string, 0, len(m.byTenant))
	for isp := range m.byTenant {
		out = append(out, isp)
	}
	sort.Strings(out)
	return out
}

// ConduitsOf returns the conduits where isp is a published tenant.
func (m *Map) ConduitsOf(isp string) []ConduitID {
	src := m.byTenant[isp]
	out := make([]ConduitID, len(src))
	copy(out, src)
	return out
}

// NodesOf returns the distinct nodes touched by isp's conduits,
// ascending.
func (m *Map) NodesOf(isp string) []NodeID {
	seen := make(map[NodeID]struct{})
	for _, cid := range m.byTenant[isp] {
		c := &m.Conduits[cid]
		seen[c.A] = struct{}{}
		seen[c.B] = struct{}{}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkCount returns the total number of (ISP, conduit) links.
func (m *Map) LinkCount() int { return m.linkCount }

// Stats summarizes the map in the terms of the paper's Figure 1
// caption: nodes, links, and conduits with at least one tenant.
type Stats struct {
	Nodes        int
	Links        int
	Conduits     int // conduits with >= 1 published tenant
	ISPs         int
	TotalKm      float64
	AvgTenancy   float64 // links / conduits
	MaxSharing   int
	SharedByGE2  int
	SharedByGE3  int
	SharedByGE4  int
	SharedByGT17 int
}

// Stats computes summary statistics over tenanted conduits.
func (m *Map) Stats() Stats {
	s := Stats{Nodes: len(m.Nodes), Links: m.linkCount, ISPs: len(m.byTenant)}
	for i := range m.Conduits {
		c := &m.Conduits[i]
		n := len(c.Tenants)
		if n == 0 {
			continue
		}
		s.Conduits++
		s.TotalKm += c.LengthKm
		if n > s.MaxSharing {
			s.MaxSharing = n
		}
		if n >= 2 {
			s.SharedByGE2++
		}
		if n >= 3 {
			s.SharedByGE3++
		}
		if n >= 4 {
			s.SharedByGE4++
		}
		if n > 17 {
			s.SharedByGT17++
		}
	}
	if s.Conduits > 0 {
		s.AvgTenancy = float64(s.Links) / float64(s.Conduits)
	}
	return s
}

// Graph compiles the conduit multigraph of v: vertex i is node i,
// edge j is conduit j, weighted by length. Conduits with no tenants
// are included; LitWeight and TenantWeight exclude them.
func Graph(v View) *graph.Graph {
	g := graph.New(v.NumNodes())
	for cid := ConduitID(0); int(cid) < v.NumConduits(); cid++ {
		a, b := v.ConduitEnds(cid)
		g.AddEdge(int(a), int(b), v.ConduitLengthKm(cid))
	}
	return g
}

// TenantWeight returns a graph.WeightFunc over Graph(v) that permits
// only conduits where isp is a tenant in v, weighted by length.
func TenantWeight(v View, isp string) graph.WeightFunc {
	return weightRow(v, func(cid ConduitID) bool { return v.HasTenant(cid, isp) })
}

// LitWeight returns a graph.WeightFunc over Graph(v) that permits any
// conduit with at least one tenant in v (the paper's "conduits with
// lit fiber"), weighted by length.
func LitWeight(v View) graph.WeightFunc {
	return weightRow(v, func(cid ConduitID) bool { return len(v.Tenants(cid)) > 0 })
}

// weightRow compiles the row once, so the returned function is a slice
// read: kernels call it once per edge per query, and Yen's k-shortest
// paths queries once per spur. A conduit open rejects weighs +Inf.
func weightRow(v View, open func(ConduitID) bool) graph.WeightFunc {
	w := make([]float64, v.NumConduits())
	for cid := range w {
		w[cid] = inf
		if open(ConduitID(cid)) {
			w[cid] = v.ConduitLengthKm(ConduitID(cid))
		}
	}
	return func(eid int) float64 { return w[eid] }
}

var inf = math.Inf(1)
