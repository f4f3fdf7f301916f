package geo

import "math"

// GridIndex is a uniform lat/lon grid spatial index over polyline
// segments. It answers "does any polyline pass near this point"
// queries in roughly constant time for the densities that occur in
// continental-scale infrastructure maps.
//
// The zero value is not usable; construct with NewGridIndex.
type GridIndex struct {
	cellDeg  float64
	segments []indexedSegment
	cells    map[cellKey][]int32 // cell -> indices into segments
}

type indexedSegment struct{ a, b Point }

type cellKey struct{ row, col int32 }

// NewGridIndex creates an index whose cells are approximately cellKm
// wide at mid-latitudes. cellKm must be positive.
func NewGridIndex(cellKm float64) *GridIndex {
	if cellKm <= 0 {
		panic("geo: NewGridIndex requires positive cell size")
	}
	return &GridIndex{
		cellDeg: cellKm / 111.32,
		cells:   make(map[cellKey][]int32),
	}
}

func (g *GridIndex) key(p Point) cellKey {
	return cellKey{
		row: int32(math.Floor(p.Lat / g.cellDeg)),
		col: int32(math.Floor(p.Lon / g.cellDeg)),
	}
}

// InsertPolyline registers every segment of pl; a polyline may be
// inserted in several pieces.
func (g *GridIndex) InsertPolyline(pl Polyline) {
	for i := 1; i < len(pl); i++ {
		g.insertSegment(pl[i-1], pl[i])
	}
}

func (g *GridIndex) insertSegment(a, b Point) {
	segIdx := int32(len(g.segments))
	g.segments = append(g.segments, indexedSegment{a: a, b: b})
	// Register the segment in every cell its bounding box touches.
	minR := int32(math.Floor(math.Min(a.Lat, b.Lat) / g.cellDeg))
	maxR := int32(math.Floor(math.Max(a.Lat, b.Lat) / g.cellDeg))
	minC := int32(math.Floor(math.Min(a.Lon, b.Lon) / g.cellDeg))
	maxC := int32(math.Floor(math.Max(a.Lon, b.Lon) / g.cellDeg))
	for r := minR; r <= maxR; r++ {
		for c := minC; c <= maxC; c++ {
			k := cellKey{row: r, col: c}
			g.cells[k] = append(g.cells[k], segIdx)
		}
	}
}

// AnyWithinKm reports whether any indexed segment passes within
// radiusKm of p. It tests each candidate segment in the cells
// overlapping the radius around p once.
func (g *GridIndex) AnyWithinKm(p Point, radiusKm float64) bool {
	cos := math.Cos(radians(p.Lat))
	if cos < 0.1 {
		cos = 0.1
	}
	dLat := radiusKm / 111.32
	dLon := radiusKm / (111.32 * cos)
	minR := int32(math.Floor((p.Lat - dLat) / g.cellDeg))
	maxR := int32(math.Floor((p.Lat + dLat) / g.cellDeg))
	minC := int32(math.Floor((p.Lon - dLon) / g.cellDeg))
	maxC := int32(math.Floor((p.Lon + dLon) / g.cellDeg))
	visited := make(map[int32]struct{})
	for r := minR; r <= maxR; r++ {
		for c := minC; c <= maxC; c++ {
			for _, si := range g.cells[cellKey{row: r, col: c}] {
				if _, ok := visited[si]; ok {
					continue
				}
				visited[si] = struct{}{}
				if seg := g.segments[si]; PointSegmentDistanceKm(p, seg.a, seg.b) <= radiusKm {
					return true
				}
			}
		}
	}
	return false
}
