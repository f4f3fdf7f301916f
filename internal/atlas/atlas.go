// Package atlas is the data substrate standing in for the proprietary
// inputs of the InterTubes paper: a set of real US cities (with true
// coordinates and approximate populations) and a corridor graph whose
// edges follow real interstate-highway, railway, and pipeline
// alignments. The paper drew the equivalent layers from ISP fiber
// maps and the US National Atlas; see DESIGN.md for the substitution
// argument.
package atlas

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"intertubes/internal/geo"
	"intertubes/internal/graph"
)

// ROW identifies which rights-of-way are available in a corridor.
type ROW int

const (
	// ROWRoad means the corridor is highway-only.
	ROWRoad ROW = iota
	// ROWRail means the corridor is railway-only.
	ROWRail
	// ROWBoth means highway and railway share the corridor.
	ROWBoth
	// ROWPipeline means the corridor follows a petroleum/NGL pipeline
	// right-of-way with no co-located road or rail (the paper's §3
	// examples such as Anaheim-Las Vegas).
	ROWPipeline
)

// String returns the lowercase name used in the data files.
func (r ROW) String() string {
	switch r {
	case ROWRoad:
		return "road"
	case ROWRail:
		return "rail"
	case ROWBoth:
		return "both"
	case ROWPipeline:
		return "pipeline"
	}
	return fmt.Sprintf("ROW(%d)", int(r))
}

// HasRoad reports whether a highway runs in the corridor.
func (r ROW) HasRoad() bool { return r == ROWRoad || r == ROWBoth }

// HasRail reports whether a railway runs in the corridor.
func (r ROW) HasRail() bool { return r == ROWRail || r == ROWBoth }

func parseROW(s string) (ROW, error) {
	switch s {
	case "road":
		return ROWRoad, nil
	case "rail":
		return ROWRail, nil
	case "both":
		return ROWBoth, nil
	case "pipeline":
		return ROWPipeline, nil
	}
	return 0, fmt.Errorf("atlas: unknown right-of-way %q", s)
}

// City is a population center.
type City struct {
	Name       string
	State      string
	Loc        geo.Point
	Population int
}

// Key returns the canonical "Name,ST" identifier.
func (c City) Key() string { return c.Name + "," + c.State }

// Corridor is a transportation corridor between two cities. A, B are
// indices into Atlas.Cities. Geometry follows the corridor's primary
// right-of-way; RoadGeom/RailGeom/PipeGeom carry the per-mode
// alignments (nil when the mode is absent), which differ by a few km
// the way a highway and a railway sharing a valley do.
type Corridor struct {
	A, B     int
	ROW      ROW
	Route    string
	Geometry geo.Polyline
	RoadGeom geo.Polyline
	RailGeom geo.Polyline
	PipeGeom geo.Polyline
	LengthKm float64
}

// Atlas is the loaded city and corridor database.
type Atlas struct {
	Cities    []City
	Corridors []Corridor
	byKey     map[string]int
}

// Load parses the embedded city and corridor data. The data is part
// of the program, so malformed data panics (it is a build defect, not
// a runtime condition).
func Load() *Atlas {
	a, err := parse(citiesData, corridorsData)
	if err != nil {
		panic(err)
	}
	return a
}

func parse(cities, corridors string) (*Atlas, error) {
	a := &Atlas{byKey: make(map[string]int)}
	for ln, line := range strings.Split(cities, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 5 {
			return nil, fmt.Errorf("atlas: cities line %d: want 5 fields, got %d", ln+1, len(parts))
		}
		lat, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("atlas: cities line %d: lat: %v", ln+1, err)
		}
		lon, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, fmt.Errorf("atlas: cities line %d: lon: %v", ln+1, err)
		}
		pop, err := strconv.Atoi(parts[4])
		if err != nil {
			return nil, fmt.Errorf("atlas: cities line %d: population: %v", ln+1, err)
		}
		c := City{Name: parts[0], State: parts[1], Loc: geo.Point{Lat: lat, Lon: lon}, Population: pop}
		if !c.Loc.Valid() {
			return nil, fmt.Errorf("atlas: cities line %d: invalid coordinates %v", ln+1, c.Loc)
		}
		if _, dup := a.byKey[c.Key()]; dup {
			return nil, fmt.Errorf("atlas: duplicate city %q", c.Key())
		}
		a.byKey[c.Key()] = len(a.Cities)
		a.Cities = append(a.Cities, c)
	}
	for ln, line := range strings.Split(corridors, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 4 {
			return nil, fmt.Errorf("atlas: corridors line %d: want 4 fields, got %d", ln+1, len(parts))
		}
		ai, ok := a.byKey[parts[0]]
		if !ok {
			return nil, fmt.Errorf("atlas: corridors line %d: unknown city %q", ln+1, parts[0])
		}
		bi, ok := a.byKey[parts[1]]
		if !ok {
			return nil, fmt.Errorf("atlas: corridors line %d: unknown city %q", ln+1, parts[1])
		}
		if ai == bi {
			return nil, fmt.Errorf("atlas: corridors line %d: self-loop at %q", ln+1, parts[0])
		}
		row, err := parseROW(parts[2])
		if err != nil {
			return nil, fmt.Errorf("atlas: corridors line %d: %v", ln+1, err)
		}
		c := Corridor{A: ai, B: bi, ROW: row, Route: parts[3]}
		buildGeometry(&c, a.Cities[ai], a.Cities[bi])
		a.Corridors = append(a.Corridors, c)
	}
	return a, nil
}

// MustCity returns the city index or panics; for tests and embedded
// configuration that reference cities by name.
func (a *Atlas) MustCity(key string) int {
	i, ok := a.byKey[key]
	if !ok {
		panic(fmt.Sprintf("atlas: unknown city %q", key))
	}
	return i
}

// Graph returns the corridor multigraph: vertex i is city i, edge j is
// corridor j, weighted by corridor length in km.
func (a *Atlas) Graph() *graph.Graph {
	g := graph.New(len(a.Cities))
	for _, c := range a.Corridors {
		g.AddEdge(c.A, c.B, c.LengthKm)
	}
	return g
}

// RoadPolylines returns the highway layer (one polyline per corridor
// with a road).
func (a *Atlas) RoadPolylines() []geo.Polyline {
	return a.layer(func(c Corridor) geo.Polyline { return c.RoadGeom })
}

// RailPolylines returns the railway layer.
func (a *Atlas) RailPolylines() []geo.Polyline {
	return a.layer(func(c Corridor) geo.Polyline { return c.RailGeom })
}

// PipelinePolylines returns the pipeline layer.
func (a *Atlas) PipelinePolylines() []geo.Polyline {
	return a.layer(func(c Corridor) geo.Polyline { return c.PipeGeom })
}

func (a *Atlas) layer(pick func(Corridor) geo.Polyline) []geo.Polyline {
	var out []geo.Polyline
	for _, c := range a.Corridors {
		if pl := pick(c); pl != nil {
			out = append(out, pl)
		}
	}
	return out
}

// buildGeometry synthesizes deterministic corridor alignments. Real
// roads wiggle; we model that with a smooth sinusoidal perpendicular
// displacement whose phase is derived from the corridor name, so every
// build of the atlas produces identical geometry. Road, rail, and
// pipeline alignments in the same corridor get different phases and a
// small mutual offset, like a highway and a railway sharing a valley.
func buildGeometry(c *Corridor, ca, cb City) {
	if c.ROW.HasRoad() {
		c.RoadGeom = wiggle(ca.Loc, cb.Loc, c.Route+"/road", 0)
	}
	if c.ROW.HasRail() {
		c.RailGeom = wiggle(ca.Loc, cb.Loc, c.Route+"/rail", 3.0)
	}
	if c.ROW == ROWPipeline {
		c.PipeGeom = wiggle(ca.Loc, cb.Loc, c.Route+"/pipe", 0)
	}
	switch {
	case c.RoadGeom != nil:
		c.Geometry = c.RoadGeom
	case c.RailGeom != nil:
		c.Geometry = c.RailGeom
	default:
		c.Geometry = c.PipeGeom
	}
	c.LengthKm = c.Geometry.LengthKm()
}

// wiggle builds a polyline from a to b with a smooth deterministic
// perpendicular displacement plus a constant sideways offset.
func wiggle(a, b geo.Point, seed string, sideOffsetKm float64) geo.Polyline {
	dist := a.DistanceKm(b)
	n := int(dist/25) + 2 // a vertex roughly every 25 km
	if n < 3 {
		n = 3
	}
	h := fnv.New64a()
	h.Write([]byte(seed))
	hv := h.Sum64()
	phase := float64(hv%360) * math.Pi / 180
	cycles := 1 + float64((hv>>16)%3) // 1..3 full sine cycles
	// Amplitude scales with corridor length but stays under ~9 km so
	// that a 15 km co-location buffer still matches shared corridors.
	amp := math.Min(9, dist*0.035)

	base := geo.GreatCircle(a, b, n)
	out := make(geo.Polyline, len(base))
	out[0], out[len(out)-1] = base[0], base[len(base)-1]
	for i := 1; i < len(base)-1; i++ {
		f := float64(i) / float64(len(base)-1)
		disp := amp*math.Sin(2*math.Pi*cycles*f+phase) + sideOffsetKm
		brg := base[i-1].BearingDeg(base[i+1]) + 90
		if disp < 0 {
			brg = base[i-1].BearingDeg(base[i+1]) - 90
			disp = -disp
		}
		out[i] = base[i].Offset(brg, disp)
	}
	return out
}
