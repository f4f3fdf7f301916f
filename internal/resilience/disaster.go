package resilience

import (
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
)

// disaster.go models geographically correlated failures: a hurricane,
// earthquake, or flood takes out every conduit whose route passes
// through an affected region — the failure mode behind the paper's
// natural-disaster citations (the 2003 blackout, the 2006 Taiwan
// quake) and its observation that outages stem from a "lack of
// geographic diversity in connectivity".

// Region is a circular disaster footprint.
type Region struct {
	Center   geo.Point
	RadiusKm float64
}

// RegionIndex answers region queries over one map. It keeps each
// tenanted conduit's path, the path's bounds and the longitude scale
// ExpandKm derives from those bounds, in id order, so a query pays for
// neither per conduit. Read-only after NewRegionIndex; safe for
// concurrent queries.
type RegionIndex struct {
	entries []regionEntry
}

type regionEntry struct {
	id       fiber.ConduitID
	path     geo.Polyline
	bounds   geo.Bounds
	kmPerLon float64
}

// NewRegionIndex indexes m's tenanted conduits.
func NewRegionIndex(m *fiber.Map) *RegionIndex {
	ix := &RegionIndex{}
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		b := c.Path.Bounds()
		ix.entries = append(ix.entries, regionEntry{id: c.ID, path: c.Path, bounds: b, kmPerLon: b.KmPerDegreeLon()})
	}
	return ix
}

// Conduits returns every indexed conduit whose path enters r, sorted
// by id, and how many conduits passed the cheap bounds rejection that
// runs before the exact distance test.
func (ix *RegionIndex) Conduits(r Region) (ids []fiber.ConduitID, candidates int) {
	for i := range ix.entries {
		e := &ix.entries[i]
		if !e.bounds.ExpandKmAt(r.RadiusKm, e.kmPerLon).Contains(r.Center) {
			continue
		}
		candidates++
		if e.path.DistanceToKm(r.Center) <= r.RadiusKm {
			ids = append(ids, e.id)
		}
	}
	return ids, candidates
}
