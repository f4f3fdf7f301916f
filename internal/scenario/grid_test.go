package scenario

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

func testGridSpec() GridSpec {
	return GridSpec{CellKm: 400, RadiiKm: []float64{60, 150}}
}

func TestGridSpecHashCanonical(t *testing.T) {
	base := GridSpec{CellKm: 200, RadiiKm: []float64{25, 50, 100}}
	h := base.Hash()

	// Radius order and duplicates are canonicalized away.
	if got := (GridSpec{CellKm: 200, RadiiKm: []float64{100, 25, 50, 25}}).Hash(); got != h {
		t.Errorf("unordered/duplicated radii changed the hash: %s vs %s", got, h)
	}
	// CullKm defaults to the largest radius, so spelling it out is a no-op.
	if got := (GridSpec{CellKm: 200, RadiiKm: []float64{25, 50, 100}, CullKm: 100}).Hash(); got != h {
		t.Errorf("explicit default cullKm changed the hash: %s vs %s", got, h)
	}
	// MaxCells is an admission bound, not identity.
	if got := (GridSpec{CellKm: 200, RadiiKm: []float64{25, 50, 100}, MaxCells: 7}).Hash(); got != h {
		t.Errorf("maxCells changed the hash: %s vs %s", got, h)
	}
	// Fields that change the planned cells change the hash.
	for _, other := range []GridSpec{
		{CellKm: 100, RadiiKm: []float64{25, 50, 100}},
		{CellKm: 200, RadiiKm: []float64{25, 50}},
		{CellKm: 200, RadiiKm: []float64{25, 50, 100}, CullKm: 400},
	} {
		if other.Hash() == h {
			t.Errorf("distinct spec %+v collided with %+v", other, base)
		}
	}
}

func TestGridSpecValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct {
		spec  GridSpec
		field string // named by the error, when set
	}{
		{spec: GridSpec{CellKm: 0, RadiiKm: []float64{10}}},
		{spec: GridSpec{CellKm: -5, RadiiKm: []float64{10}}},
		{spec: GridSpec{CellKm: 100}},
		{spec: GridSpec{CellKm: 100, RadiiKm: []float64{10, -1}}},
		{spec: GridSpec{CellKm: 100, RadiiKm: []float64{10}, CullKm: -2}},
		{spec: GridSpec{CellKm: 100, RadiiKm: []float64{10}, MaxCells: -1}},
		{GridSpec{CellKm: nan, RadiiKm: []float64{10}}, "cellKm"},
		{GridSpec{CellKm: 100, RadiiKm: []float64{10, inf}}, "radius"},
		{GridSpec{CellKm: 100, RadiiKm: []float64{10}, CullKm: nan}, "cullKm"},
	} {
		err := bad.spec.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", bad.spec)
		} else if !strings.Contains(err.Error(), bad.field) {
			t.Errorf("Validate(%+v) = %q, want an error naming %s", bad.spec, err, bad.field)
		}
	}
	if err := (testGridSpec()).Validate(); err != nil {
		t.Errorf("Validate rejected a valid spec: %v", err)
	}
}

func TestPlanGridDeterministicAndOrdered(t *testing.T) {
	res, _ := build(t)
	spec := testGridSpec()

	p1, err := PlanGrid(res.Map, spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanGrid(res.Map, spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(p1)
	b2, _ := json.Marshal(p2)
	if string(b1) != string(b2) {
		t.Error("PlanGrid is not deterministic for identical inputs")
	}
	if p1.Total() == 0 {
		t.Fatal("plan has no cells")
	}
	if p1.Hash != spec.Hash() {
		t.Errorf("plan hash %s != spec hash %s", p1.Hash, spec.Hash())
	}

	// Deterministic order: Index is the slot, rows/cols non-decreasing
	// row-major, radii strictly ascending within one center.
	prev := GridCell{Row: -1, Col: -1}
	for i, c := range p1.Cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.Row < 0 || c.Row >= p1.Rows || c.Col < 0 || c.Col >= p1.Cols {
			t.Fatalf("cell %d at (%d,%d) outside %dx%d lattice", i, c.Row, c.Col, p1.Rows, p1.Cols)
		}
		sameCenter := c.Row == prev.Row && c.Col == prev.Col
		if sameCenter {
			if c.RadiusKm <= prev.RadiusKm {
				t.Fatalf("cell %d: radii not ascending within center", i)
			}
		} else if c.Row < prev.Row || (c.Row == prev.Row && c.Col < prev.Col) {
			t.Fatalf("cell %d: not row-major order (%d,%d) after (%d,%d)",
				i, c.Row, c.Col, prev.Row, prev.Col)
		}
		prev = c
	}

	// Each cell is an ordinary regional scenario whose hash ignores the
	// display name, so grid cells share cache entries with interactive
	// disaster posts at the same coordinates.
	c := p1.Cells[0]
	sc := c.Scenario()
	bare := Scenario{Regions: []Region{{Lat: c.Lat, Lon: c.Lon, RadiusKm: c.RadiusKm}}}
	if sc.Hash() != bare.Hash() {
		t.Errorf("cell scenario hash %s != unnamed equivalent %s", sc.Hash(), bare.Hash())
	}
	if !strings.Contains(sc.Name, "grid[") {
		t.Errorf("cell scenario name %q lacks the grid label", sc.Name)
	}
}

func TestPlanGridCullingAndCaps(t *testing.T) {
	res, _ := build(t)

	// A tighter cull keeps no more centers than a looser one.
	loose, err := PlanGrid(res.Map, GridSpec{CellKm: 400, RadiiKm: []float64{60}, CullKm: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := PlanGrid(res.Map, GridSpec{CellKm: 400, RadiiKm: []float64{60}, CullKm: 60})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Total() > loose.Total() {
		t.Errorf("tighter cull kept more cells: %d > %d", tight.Total(), loose.Total())
	}

	// MaxCells is enforced at planning time.
	if _, err := PlanGrid(res.Map, GridSpec{CellKm: 400, RadiiKm: []float64{60}, MaxCells: 1}); err == nil {
		t.Error("PlanGrid accepted a plan exceeding MaxCells")
	}
	// Invalid specs fail before any planning work.
	if _, err := PlanGrid(res.Map, GridSpec{}); err == nil {
		t.Error("PlanGrid accepted an empty spec")
	}
}

// TestEnginePlanGridReportsBaselineVersion: the plan comes with the
// engine's baseline digest, which names the map by content. A second
// engine over the same build agrees on it; an engine over another
// seed's map does not.
func TestEnginePlanGridReportsBaselineVersion(t *testing.T) {
	eng := newEngine(t, 0)
	plan, baseline, err := eng.PlanGrid(testGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if baseline != eng.Baseline() || len(baseline) != 64 {
		t.Errorf("PlanGrid baseline %q, want the engine's 64-hex digest %q", baseline, eng.Baseline())
	}
	if plan.Total() == 0 {
		t.Error("engine plan has no cells")
	}
	res, mx := build(t)
	if got := New(res, mx, Options{Seed: 42, Workers: 1}).Baseline(); got != baseline {
		t.Errorf("second engine over the same build: baseline %s, want %s", got, baseline)
	}
	res7 := mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 7})
	if got := New(res7, risk.Build(res7.Map, nil), Options{Seed: 7}).Baseline(); got == baseline {
		t.Errorf("seed-7 map has the seed-42 baseline %s", got)
	}
}
