package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
)

// grid.go plans the exhaustive disaster grid: a lat/lon lattice of
// circular-disaster centers spanning the mapped fiber plant, crossed
// with a ladder of radii. Each planned cell is an ordinary regional
// scenario, so it canonicalizes through the existing content hash and
// the serving cache and singleflight apply unchanged. Planning is pure
// and deterministic: the same spec against the same map always yields
// the same cells in the same order, which is what lets the job store
// resume a half-finished sweep and still produce a byte-identical
// artifact.

// kmPerDegLat is the meridian arc length of one degree of latitude,
// matching the constant the geo package uses for its planar
// approximations.
const kmPerDegLat = 111.32

// DefaultMaxGridCells bounds a planned grid when the spec does not
// set its own cap. A grid sweep is admission-controlled work; an
// accidental cellKm=1 request must fail at planning time, not grind
// the job queue for a week.
const DefaultMaxGridCells = 20000

// GridSpec declares an exhaustive disaster-grid sweep: circular
// disasters of every radius in RadiiKm evaluated at every cell center
// of a CellKm-spaced lattice over the mapped conduits' bounding
// region.
type GridSpec struct {
	// CellKm is the lattice spacing between neighboring disaster
	// centers, in kilometers. Must be positive.
	CellKm float64 `json:"cellKm"`
	// RadiiKm is the disaster-radius ladder evaluated at every kept
	// center. Must be non-empty with positive entries; sorted and
	// de-duplicated by canonicalization.
	RadiiKm []float64 `json:"radiiKm"`
	// CullKm drops lattice centers farther than this from every
	// tenanted conduit — a disaster that cannot reach any fiber
	// perturbs nothing and is not worth an evaluation. Defaults to the
	// largest radius in the ladder.
	CullKm float64 `json:"cullKm,omitempty"`
	// MaxCells caps the planned cell count (centers × radii); planning
	// fails rather than exceeding it. Defaults to DefaultMaxGridCells.
	// It bounds admission only and never changes which cells a
	// successfully planned grid contains, so it stays out of the hash.
	MaxCells int `json:"maxCells,omitempty"`
}

// canonicalGrid sorts and de-duplicates the radius ladder and fills
// the CullKm default so logically equal specs hash equally.
func canonicalGrid(spec GridSpec) GridSpec {
	radii := append([]float64(nil), spec.RadiiKm...)
	sort.Float64s(radii)
	w := 0
	for i, r := range radii {
		if i == 0 || r != radii[w-1] {
			radii[w] = r
			w++
		}
	}
	spec.RadiiKm = radii[:w]
	if spec.CullKm == 0 && len(spec.RadiiKm) > 0 {
		spec.CullKm = spec.RadiiKm[len(spec.RadiiKm)-1]
	}
	return spec
}

// Validate checks the spec's fields without planning it.
func (spec GridSpec) Validate() error {
	if spec.CellKm <= 0 {
		return fmt.Errorf("grid: cellKm must be positive (got %g)", spec.CellKm)
	}
	if len(spec.RadiiKm) == 0 {
		return fmt.Errorf("grid: at least one radius required")
	}
	for _, r := range spec.RadiiKm {
		if r <= 0 {
			return fmt.Errorf("grid: radius must be positive (got %g)", r)
		}
	}
	if spec.CullKm < 0 {
		return fmt.Errorf("grid: cullKm must be non-negative (got %g)", spec.CullKm)
	}
	if spec.MaxCells < 0 {
		return fmt.Errorf("grid: maxCells must be non-negative (got %d)", spec.MaxCells)
	}
	return nil
}

// Hash returns the stable content hash of the spec's canonical form.
// Only fields that influence the planned cells enter: MaxCells is an
// admission bound, not part of the identity.
func (spec GridSpec) Hash() string {
	c := canonicalGrid(spec)
	s := fmt.Sprintf("grid1|cell=%g|cull=%g|radii=", c.CellKm, c.CullKm)
	for i, r := range c.RadiiKm {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%g", r)
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// GridCell is one planned evaluation: a circular disaster of RadiusKm
// centered on the lattice point (Row, Col). Index is the cell's slot
// in the plan's deterministic order — rows south to north, columns
// west to east, radii ascending within a center.
type GridCell struct {
	Index    int     `json:"index"`
	Row      int     `json:"row"`
	Col      int     `json:"col"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	RadiusKm float64 `json:"radiusKm"`
}

// Scenario returns the cell's regional-disaster scenario. The name
// labels listings only; it never enters the content hash, so a grid
// cell and an interactively posted disaster at the same coordinates
// share one cache entry.
func (c GridCell) Scenario() Scenario {
	return Scenario{
		Name:    fmt.Sprintf("grid[%d,%d] r=%gkm", c.Row, c.Col, c.RadiusKm),
		Regions: []Region{{Lat: c.Lat, Lon: c.Lon, RadiusKm: c.RadiusKm}},
	}
}

// GridPlan is a materialized GridSpec against one baseline map: the
// lattice geometry and every surviving cell in evaluation order.
type GridPlan struct {
	Spec GridSpec `json:"spec"` // canonical form
	Hash string   `json:"hash"` // Spec.Hash()

	// Lattice geometry: Rows × Cols centers starting at (OriginLat,
	// OriginLon) stepping (LatStep, LonStep) degrees. Cells record
	// their own centers; the geometry exists for raster rendering.
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	OriginLat float64 `json:"originLat"`
	OriginLon float64 `json:"originLon"`
	LatStep   float64 `json:"latStep"`
	LonStep   float64 `json:"lonStep"`

	Cells []GridCell `json:"cells"`
}

// Total returns the number of planned cells.
func (p *GridPlan) Total() int { return len(p.Cells) }

// PlanGrid lays the spec's lattice over the bounding region of the
// map's tenanted conduits, culls centers that no disaster in the
// ladder could ever reach fiber from, and expands the survivors into
// cells. The result is deterministic in (map, spec).
func PlanGrid(m *fiber.Map, spec GridSpec) (*GridPlan, error) {
	spec = canonicalGrid(spec)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	maxCells := spec.MaxCells
	if maxCells == 0 {
		maxCells = DefaultMaxGridCells
	}

	// Bounding region and cull index over the lit plant only: dark
	// conduits cannot be cut, so they neither extend the lattice nor
	// keep a center alive.
	bounds := geo.EmptyBounds()
	idx := geo.NewGridIndex(math.Max(spec.CellKm, 50))
	lit := 0
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		lit++
		idx.InsertPolyline(int(c.ID), c.Path)
		for _, p := range c.Path {
			bounds = bounds.Add(p)
		}
	}
	if lit == 0 || bounds.Empty() {
		return nil, fmt.Errorf("grid: map has no tenanted conduits to sweep")
	}

	latStep := spec.CellKm / kmPerDegLat
	midLat := (bounds.MinLat + bounds.MaxLat) / 2
	cosMid := math.Cos(midLat * math.Pi / 180)
	if cosMid < 0.1 {
		cosMid = 0.1
	}
	lonStep := spec.CellKm / (kmPerDegLat * cosMid)

	rows := int(math.Ceil((bounds.MaxLat-bounds.MinLat)/latStep)) + 1
	cols := int(math.Ceil((bounds.MaxLon-bounds.MinLon)/lonStep)) + 1

	plan := &GridPlan{
		Spec:      spec,
		Hash:      spec.Hash(),
		Rows:      rows,
		Cols:      cols,
		OriginLat: bounds.MinLat,
		OriginLon: bounds.MinLon,
		LatStep:   latStep,
		LonStep:   lonStep,
	}

	// Row-major from the southwest corner, radii ascending within a
	// center: the deterministic evaluation order everything downstream
	// (checkpoints, heatmaps, SSE chunks) is keyed to.
	for r := 0; r < rows; r++ {
		lat := round6(bounds.MinLat + float64(r)*latStep)
		for c := 0; c < cols; c++ {
			lon := round6(bounds.MinLon + float64(c)*lonStep)
			if !idx.AnyWithinKm(geo.Point{Lat: lat, Lon: lon}, spec.CullKm) {
				continue
			}
			for _, radius := range spec.RadiiKm {
				plan.Cells = append(plan.Cells, GridCell{
					Index:    len(plan.Cells),
					Row:      r,
					Col:      c,
					Lat:      lat,
					Lon:      lon,
					RadiusKm: radius,
				})
				if len(plan.Cells) > maxCells {
					return nil, fmt.Errorf("grid: plan exceeds %d cells (use a coarser cellKm or raise maxCells)", maxCells)
				}
			}
		}
	}
	if len(plan.Cells) == 0 {
		return nil, fmt.Errorf("grid: every lattice center was culled (cullKm %g too small for cellKm %g)", spec.CullKm, spec.CellKm)
	}
	return plan, nil
}

// round6 rounds to 1e-6 degrees (about 11 cm) so cell centers — and
// therefore the scenario hashes derived from them — serialize without
// float noise.
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// PlanGrid plans the spec against the engine's baseline map and
// returns the baseline's digest (Engine.Baseline) with it: the
// identity a job records next to its plan.
func (e *Engine) PlanGrid(spec GridSpec) (*GridPlan, string, error) {
	plan, err := PlanGrid(e.snap.res.Map, spec)
	if err != nil {
		return nil, "", err
	}
	return plan, e.Baseline(), nil
}
