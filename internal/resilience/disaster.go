package resilience

import (
	"sort"

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

// ConduitsInRegion returns every tenanted conduit whose path enters
// the region, sorted by id.
func ConduitsInRegion(m *fiber.Map, r Region) []fiber.ConduitID {
	var out []fiber.ConduitID
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		// Cheap bounds rejection before the exact distance test.
		if !c.Path.Bounds().ExpandKm(r.RadiusKm).Contains(r.Center) {
			continue
		}
		if c.Path.DistanceToKm(r.Center) <= r.RadiusKm {
			out = append(out, c.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
