// Package geo provides the geodesy substrate for the InterTubes
// reproduction: great-circle math over WGS84-spherical coordinates,
// polylines with resampling and distance queries, a spatial grid index,
// buffered co-location (overlap) analysis standing in for the paper's
// ArcGIS polygon-overlap workflow, and fiber propagation-delay
// conversion.
//
// All distances are in kilometres, all angles in degrees unless noted,
// and all latencies in milliseconds. Computations use a spherical Earth
// (mean radius 6371.0088 km), which is accurate to ~0.5% — far below
// the fidelity the paper's analyses require.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the IUGG mean Earth radius.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in degrees.
// Latitude is positive north, longitude positive east
// (US longitudes are negative).
type Point struct {
	Lat float64
	Lon float64
}

// String renders the point as "lat,lon" with 4 decimal places
// (~11 m resolution).
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the legal coordinate range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// DistanceKm returns the great-circle (haversine) distance between
// p and q in kilometres.
func (p Point) DistanceKm(q Point) float64 {
	lat1, lon1 := radians(p.Lat), radians(p.Lon)
	lat2, lon2 := radians(q.Lat), radians(q.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// BearingDeg returns the initial great-circle bearing from p to q in
// degrees clockwise from north, in [0, 360).
func (p Point) BearingDeg(q Point) float64 {
	lat1, lat2 := radians(p.Lat), radians(q.Lat)
	dLon := radians(q.Lon - p.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	b := degrees(math.Atan2(y, x))
	if b < 0 {
		b += 360
	}
	return b
}

// Intermediate returns the point a fraction f of the way along the
// great circle from p to q. f=0 yields p, f=1 yields q. Fractions
// outside [0,1] extrapolate along the great circle.
func Intermediate(p, q Point, f float64) Point {
	if p == q {
		return p
	}
	lat1, lon1 := radians(p.Lat), radians(p.Lon)
	lat2, lon2 := radians(q.Lat), radians(q.Lon)
	d := p.DistanceKm(q) / EarthRadiusKm // angular distance
	if d == 0 {
		return p
	}
	sinD := math.Sin(d)
	a := math.Sin((1-f)*d) / sinD
	b := math.Sin(f*d) / sinD
	x := a*math.Cos(lat1)*math.Cos(lon1) + b*math.Cos(lat2)*math.Cos(lon2)
	y := a*math.Cos(lat1)*math.Sin(lon1) + b*math.Cos(lat2)*math.Sin(lon2)
	z := a*math.Sin(lat1) + b*math.Sin(lat2)
	return Point{
		Lat: degrees(math.Atan2(z, math.Sqrt(x*x+y*y))),
		Lon: degrees(math.Atan2(y, x)),
	}
}

// Offset returns the point reached by travelling distKm from p along
// the given bearing (degrees clockwise from north).
func (p Point) Offset(bearingDeg, distKm float64) Point {
	lat1, lon1 := radians(p.Lat), radians(p.Lon)
	brg := radians(bearingDeg)
	d := distKm / EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2),
	)
	// Normalize longitude to [-180, 180].
	lonDeg := math.Mod(degrees(lon2)+540, 360) - 180
	return Point{Lat: degrees(lat2), Lon: lonDeg}
}

// Midpoint returns the great-circle midpoint of p and q.
func Midpoint(p, q Point) Point { return Intermediate(p, q, 0.5) }

// Bounds is an axis-aligned lat/lon bounding box.
type Bounds struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// EmptyBounds returns a bounds value that contains nothing and extends
// correctly under Add.
func EmptyBounds() Bounds {
	return Bounds{MinLat: 91, MinLon: 181, MaxLat: -91, MaxLon: -181}
}

// Add extends the bounds to include p.
func (b Bounds) Add(p Point) Bounds {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Contains reports whether p lies inside the bounds (inclusive).
func (b Bounds) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// ExpandKm grows the bounds by approximately km in every direction.
func (b Bounds) ExpandKm(km float64) Bounds { return b.ExpandKmAt(km, b.KmPerDegreeLon()) }

// KmPerDegreeLon is the longitude scale ExpandKm grows b by: km per
// degree on the least-shrunk parallel inside the box (the equator when
// the box straddles it), so the expansion is conservative (never too
// small), with the cosine clamped at 0.1 near the poles.
func (b Bounds) KmPerDegreeLon() float64 {
	absLat := math.Min(math.Abs(b.MinLat), math.Abs(b.MaxLat))
	if b.MinLat <= 0 && b.MaxLat >= 0 {
		absLat = 0
	}
	cos := math.Cos(radians(absLat))
	if cos < 0.1 {
		cos = 0.1
	}
	return 111.32 * cos
}

// ExpandKmAt is ExpandKm with b's longitude scale, kmPerLon =
// b.KmPerDegreeLon(), supplied by a caller that expands one box by
// many distances and computes the scale once.
func (b Bounds) ExpandKmAt(km, kmPerLon float64) Bounds {
	dLat := km / 111.32 // km per degree latitude
	dLon := km / kmPerLon
	b.MinLat -= dLat
	b.MaxLat += dLat
	b.MinLon -= dLon
	b.MaxLon += dLon
	return b
}

// Empty reports whether the bounds contain no points.
func (b Bounds) Empty() bool {
	return b.MinLat > b.MaxLat || b.MinLon > b.MaxLon
}

// PointSegmentDistanceKm returns the distance from p to the segment
// a-b. For the segment interior it uses a local equirectangular
// projection centred on the segment, which is accurate to well under
// 1% for the sub-500 km segments produced by polyline resampling.
func PointSegmentDistanceKm(p, a, b Point) float64 {
	if a == b {
		return p.DistanceKm(a)
	}
	// Project into a local tangent plane centred at a.
	cos := math.Cos(radians((a.Lat + b.Lat) / 2))
	ax, ay := 0.0, 0.0
	bx := (b.Lon - a.Lon) * cos * 111.32
	by := (b.Lat - a.Lat) * 111.32
	px := (p.Lon - a.Lon) * cos * 111.32
	py := (p.Lat - a.Lat) * 111.32
	dx, dy := bx-ax, by-ay
	l2 := dx*dx + dy*dy
	t := ((px-ax)*dx + (py-ay)*dy) / l2
	d := math.Inf(1)
	if t > 0 && t < 1 {
		cx, cy := ax+t*dx, ay+t*dy
		ex, ey := px-cx, py-cy
		d = math.Sqrt(ex*ex + ey*ey)
	}
	// The equirectangular projection distorts long segments (it can
	// even misjudge which endpoint is nearer), and the true distance
	// to the segment never exceeds the distance to either endpoint, so
	// clamp against both unconditionally.
	if da := p.DistanceKm(a); da < d {
		d = da
	}
	if db := p.DistanceKm(b); db < d {
		d = db
	}
	return d
}
