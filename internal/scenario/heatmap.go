package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// heatmap.go reduces per-cell sweep Results into the disaster-grid
// product: a compact CellOutcome per evaluated cell, assembled into a
// Heatmap that renders as a GeoJSON FeatureCollection (for GIS
// viewers) or an ASCII raster (for terminals and logs). Reduction and
// rendering are pure functions of their inputs, so a resumed job that
// recovered half its cells from a checkpoint emits artifacts
// byte-identical to an uninterrupted run.

// CellOutcome is the reduced, persistable result of one grid cell:
// the cell's geometry plus the scalar damage metrics the heatmap
// plots. It is what job checkpoints store — small enough that a
// thousand-cell sweep checkpoints in well under a megabyte, rich
// enough to rebuild every artifact without re-evaluating.
type CellOutcome struct {
	Index    int     `json:"index"`
	Row      int     `json:"row"`
	Col      int     `json:"col"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	RadiusKm float64 `json:"radiusKm"`

	// Err records a deterministic evaluation failure (the cell still
	// counts as completed; it will fail identically on re-run). A
	// canceled evaluation is never reduced to a CellOutcome at all —
	// see Outcome.Canceled.
	Err string `json:"err,omitempty"`

	// ConduitsCut / TenanciesCut size the physical damage.
	ConduitsCut  int `json:"conduitsCut"`
	TenanciesCut int `json:"tenanciesCut"`
	// ISPsHit counts providers occupying at least one cut conduit;
	// ISPsDegraded counts providers whose disconnected-pair fraction
	// worsened against the baseline.
	ISPsHit      int `json:"ispsHit"`
	ISPsDegraded int `json:"ispsDegraded"`
	// MeanDisconnection and WorstDisconnection summarize the
	// per-provider disconnected-pair fractions after the disaster
	// (the heatmap's primary severity scale, 0..1).
	MeanDisconnection  float64 `json:"meanDisconnection"`
	WorstDisconnection float64 `json:"worstDisconnection"`
	// PartitionCostDrop sums, over providers, how many fewer cuts
	// partition them after the disaster — lost safety margin.
	PartitionCostDrop int `json:"partitionCostDrop"`
	// RankShifts counts providers whose risk-ranking position moved.
	RankShifts int `json:"rankShifts"`
	// LostTrafficGbps is the capacity-layer severity: Gbps of
	// gravity-model demand the disaster strands.
	LostTrafficGbps float64 `json:"lostTrafficGbps"`
}

// ReduceCell collapses one sweep Outcome into the cell's persistable
// metrics. The caller must not pass a canceled outcome — a canceled
// slot never ran, so it has no outcome to reduce; DecodeCheckpoint
// rejects persisted cells claiming otherwise.
func ReduceCell(cell GridCell, o Outcome) CellOutcome {
	out := CellOutcome{
		Index:    cell.Index,
		Row:      cell.Row,
		Col:      cell.Col,
		Lat:      cell.Lat,
		Lon:      cell.Lon,
		RadiusKm: cell.RadiusKm,
	}
	if o.Err != "" || o.Result == nil {
		out.Err = o.Err
		if out.Err == "" {
			out.Err = "no result"
		}
		return out
	}
	r := o.Result
	out.ConduitsCut = r.ConduitsCut
	out.TenanciesCut = r.TenanciesCut
	var sum float64
	for _, d := range r.Disconnection {
		if d.CutsHit > 0 {
			out.ISPsHit++
		}
		if d.After > d.Before {
			out.ISPsDegraded++
		}
		sum += d.After
		if d.After > out.WorstDisconnection {
			out.WorstDisconnection = d.After
		}
	}
	if len(r.Disconnection) > 0 {
		out.MeanDisconnection = sum / float64(len(r.Disconnection))
	}
	for _, p := range r.Partition {
		if p.Before > p.After {
			out.PartitionCostDrop += p.Before - p.After
		}
	}
	for _, rk := range r.Ranking {
		if rk.RankBefore != rk.RankAfter {
			out.RankShifts++
		}
	}
	if r.LostTraffic != nil {
		out.LostTrafficGbps = r.LostTraffic.LostGbps
	}
	return out
}

// GridGeom is the slice of a GridPlan that artifact assembly needs:
// the spec, its hash, and the lattice dimensions. Job checkpoints
// persist it so a recovered job can rebuild its heatmap even after
// the live baseline map (and therefore any re-planned lattice) has
// moved on.
type GridGeom struct {
	Hash  string   `json:"hash"`
	Spec  GridSpec `json:"spec"`
	Rows  int      `json:"rows"`
	Cols  int      `json:"cols"`
	Total int      `json:"total"`
}

// Geom returns the plan's artifact geometry.
func (p *GridPlan) Geom() GridGeom {
	return GridGeom{Hash: p.Hash, Spec: p.Spec, Rows: p.Rows, Cols: p.Cols, Total: p.Total()}
}

// Heatmap is the assembled grid-sweep artifact: every completed cell
// outcome in plan order plus the lattice geometry needed to raster
// it. Build one with BuildHeatmap.
type Heatmap struct {
	GridHash string `json:"gridHash"`
	// Baseline is the digest of the baseline the cells were evaluated
	// against (Engine.Baseline).
	Baseline    string   `json:"baseline"`
	Spec        GridSpec `json:"spec"`
	Rows        int      `json:"rows"`
	Cols        int      `json:"cols"`
	Total       int      `json:"total"`
	Completed   int      `json:"completed"`
	MaxSeverity float64  `json:"maxSeverity"`
	// MaxLostTrafficGbps is the worst capacity-layer severity across
	// completed cells, the Gbps counterpart of MaxSeverity.
	MaxLostTrafficGbps float64       `json:"maxLostTrafficGbps"`
	Cells              []CellOutcome `json:"cells"`
}

// BuildHeatmap assembles the artifact from the grid geometry and its
// completed cell outcomes (any order; they are sorted into plan
// order). Partial inputs build a partial heatmap — the streaming
// endpoint uses that — but the determinism contract only applies to
// complete ones.
func BuildHeatmap(g GridGeom, baseline string, cells []CellOutcome) *Heatmap {
	h := &Heatmap{
		GridHash:  g.Hash,
		Baseline:  baseline,
		Spec:      g.Spec,
		Rows:      g.Rows,
		Cols:      g.Cols,
		Total:     g.Total,
		Completed: len(cells),
	}
	byIndex := make([]*CellOutcome, g.Total)
	for i := range cells {
		c := &cells[i]
		if c.Index >= 0 && c.Index < len(byIndex) {
			byIndex[c.Index] = c
		}
	}
	h.Cells = make([]CellOutcome, 0, len(cells))
	for _, c := range byIndex {
		if c == nil {
			continue
		}
		h.Cells = append(h.Cells, *c)
		if c.MeanDisconnection > h.MaxSeverity {
			h.MaxSeverity = c.MeanDisconnection
		}
		if c.LostTrafficGbps > h.MaxLostTrafficGbps {
			h.MaxLostTrafficGbps = c.LostTrafficGbps
		}
	}
	h.Completed = len(h.Cells)
	return h
}

// ---- GeoJSON rendering ----

type heatFeature struct {
	Type       string       `json:"type"`
	Geometry   heatGeometry `json:"geometry"`
	Properties CellOutcome  `json:"properties"`
}

type heatGeometry struct {
	Type        string     `json:"type"`
	Coordinates [2]float64 `json:"coordinates"`
}

type heatDoc struct {
	Type      string        `json:"type"`
	GridHash  string        `json:"gridHash"`
	Baseline  string        `json:"baseline"`
	Rows      int           `json:"rows"`
	Cols      int           `json:"cols"`
	Total     int           `json:"total"`
	Completed int           `json:"completed"`
	Features  []heatFeature `json:"features"`
}

// GeoJSON renders the heatmap as a FeatureCollection: one Point
// feature per completed cell, properties carrying the damage metrics.
// Rendering is deterministic — features in plan order, fixed key
// order — so equal heatmaps serialize byte-identically.
func (h *Heatmap) GeoJSON() ([]byte, error) {
	doc := heatDoc{
		Type:      "FeatureCollection",
		GridHash:  h.GridHash,
		Baseline:  h.Baseline,
		Rows:      h.Rows,
		Cols:      h.Cols,
		Total:     h.Total,
		Completed: h.Completed,
		Features:  make([]heatFeature, 0, len(h.Cells)),
	}
	for _, c := range h.Cells {
		doc.Features = append(doc.Features, heatFeature{
			Type:       "Feature",
			Geometry:   heatGeometry{Type: "Point", Coordinates: [2]float64{c.Lon, c.Lat}},
			Properties: c,
		})
	}
	return json.MarshalIndent(doc, "", " ")
}

// severityRamp maps the 0..1 disconnection scale onto terminal ink:
// '.' is an evaluated cell with no damage, '@' total disconnection.
const severityRamp = ".:-=+*#%@"

// rampIndex maps a severity onto the ramp, clamped at both ends: a
// NaN or negative severity renders as no damage instead of indexing
// out of range, and anything >= 1 saturates at the top glyph.
func rampIndex(sev float64) int {
	// NaN fails both comparisons and lands on 0; float-side clamping
	// also keeps ±Inf away from the undefined float-to-int conversion.
	if sev >= 1 {
		return len(severityRamp) - 1
	}
	if sev > 0 {
		return int(sev * float64(len(severityRamp)))
	}
	return 0
}

// RenderGrid renders one ASCII raster per radius in the ladder, rows
// north at the top, ' ' for culled or not-yet-evaluated lattice
// points, '!' for cells whose evaluation failed, and the severity
// ramp (absolute 0..1 mean-disconnection scale) everywhere else.
func (h *Heatmap) RenderGrid() string {
	var b strings.Builder
	fmt.Fprintf(&b, "disaster grid %s (baseline %.12s): %d/%d cells, %d×%d lattice\n",
		h.GridHash, h.Baseline, h.Completed, h.Total, h.Rows, h.Cols)
	fmt.Fprintf(&b, "max severity %.4f, max lost traffic %.1f Gbps\n",
		h.MaxSeverity, h.MaxLostTrafficGbps)
	byKey := make(map[[3]int]*CellOutcome, len(h.Cells))
	radiusPos := make(map[float64]int, len(h.Spec.RadiiKm))
	for i, r := range h.Spec.RadiiKm {
		radiusPos[r] = i
	}
	for i := range h.Cells {
		c := &h.Cells[i]
		ri, ok := radiusPos[c.RadiusKm]
		if !ok {
			continue
		}
		byKey[[3]int{ri, c.Row, c.Col}] = c
	}
	for ri, radius := range h.Spec.RadiiKm {
		fmt.Fprintf(&b, "\nradius %g km (scale 0..1: %q)\n", radius, severityRamp)
		for row := h.Rows - 1; row >= 0; row-- {
			for col := 0; col < h.Cols; col++ {
				c := byKey[[3]int{ri, row, col}]
				switch {
				case c == nil:
					b.WriteByte(' ')
				case c.Err != "":
					b.WriteByte('!')
				default:
					b.WriteByte(severityRamp[rampIndex(c.MeanDisconnection)])
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
