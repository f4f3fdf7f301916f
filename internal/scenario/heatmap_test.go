package scenario

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestRampIndexClamps pins the raster glyph lookup at both ends of
// the scale: the old code clamped only the high side, so a NaN or
// negative severity indexed out of range and panicked the renderer.
func TestRampIndexClamps(t *testing.T) {
	cases := []struct {
		sev  float64
		want int
	}{
		{0, 0},
		{0.05, 0},
		{0.5, 4},
		{0.999, 8},
		{1, 8},
		{1.7, 8},
		{-0.2, 0},
		{math.Inf(1), 8},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
	}
	for _, tc := range cases {
		if got := rampIndex(tc.sev); got != tc.want {
			t.Errorf("rampIndex(%v) = %d, want %d", tc.sev, got, tc.want)
		}
	}
}

// TestRenderGridPathologicalSeverity renders cells carrying NaN and
// negative severities without panicking.
func TestRenderGridPathologicalSeverity(t *testing.T) {
	h := &Heatmap{
		GridHash: "test", Rows: 1, Cols: 3, Total: 3, Completed: 3,
		Spec: GridSpec{RadiiKm: []float64{50}},
		Cells: []CellOutcome{
			{Index: 0, Row: 0, Col: 0, RadiusKm: 50, MeanDisconnection: math.NaN()},
			{Index: 1, Row: 0, Col: 1, RadiusKm: 50, MeanDisconnection: -0.5},
			{Index: 2, Row: 0, Col: 2, RadiusKm: 50, MeanDisconnection: 2.5},
		},
	}
	grid := h.RenderGrid()
	if !strings.Contains(grid, "..@") {
		t.Errorf("pathological severities rendered unexpectedly:\n%s", grid)
	}
}

func TestReduceCellMetrics(t *testing.T) {
	cell := GridCell{Index: 3, Row: 1, Col: 2, Lat: 40, Lon: -100, RadiusKm: 50}
	res := &Result{
		ConduitsCut:  4,
		TenanciesCut: 9,
		Disconnection: []Disconnection{
			{ISP: "a", CutsHit: 2, Before: 0, After: 0.5},
			{ISP: "b", CutsHit: 0, Before: 0.1, After: 0.1},
			{ISP: "c", CutsHit: 1, Before: 0, After: 0.25},
		},
		Partition: []PartitionShift{
			{ISP: "a", Before: 5, After: 2},
			{ISP: "b", Before: 3, After: 3},
			{ISP: "c", Before: 2, After: 4}, // additions can raise it; no drop
		},
		Ranking: []RankShift{
			{ISP: "a", RankBefore: 1, RankAfter: 3},
			{ISP: "b", RankBefore: 2, RankAfter: 2},
		},
	}
	out := ReduceCell(cell, Outcome{Result: res})

	if out.Index != 3 || out.Row != 1 || out.Col != 2 || out.Lat != 40 || out.Lon != -100 || out.RadiusKm != 50 {
		t.Errorf("cell geometry not carried through: %+v", out)
	}
	if out.Err != "" {
		t.Errorf("successful reduce set Err %q", out.Err)
	}
	if out.ConduitsCut != 4 || out.TenanciesCut != 9 {
		t.Errorf("damage counts = (%d,%d), want (4,9)", out.ConduitsCut, out.TenanciesCut)
	}
	if out.ISPsHit != 2 {
		t.Errorf("ISPsHit = %d, want 2", out.ISPsHit)
	}
	if out.ISPsDegraded != 2 {
		t.Errorf("ISPsDegraded = %d, want 2", out.ISPsDegraded)
	}
	if want := (0.5 + 0.1 + 0.25) / 3; out.MeanDisconnection != want {
		t.Errorf("MeanDisconnection = %g, want %g", out.MeanDisconnection, want)
	}
	if out.WorstDisconnection != 0.5 {
		t.Errorf("WorstDisconnection = %g, want 0.5", out.WorstDisconnection)
	}
	if out.PartitionCostDrop != 3 {
		t.Errorf("PartitionCostDrop = %d, want 3", out.PartitionCostDrop)
	}
	if out.RankShifts != 1 {
		t.Errorf("RankShifts = %d, want 1", out.RankShifts)
	}
}

func TestReduceCellErrors(t *testing.T) {
	cell := GridCell{Index: 0}
	if out := ReduceCell(cell, Outcome{Err: "boom"}); out.Err != "boom" {
		t.Errorf("Err = %q, want boom", out.Err)
	}
	if out := ReduceCell(cell, Outcome{}); out.Err == "" {
		t.Error("empty outcome reduced without an error marker")
	}
}

// TestHeatmapDeterministicAssembly pins the artifact contract: cells
// fed to BuildHeatmap in any order produce byte-identical GeoJSON and
// raster output, because assembly sorts into plan order.
func TestHeatmapDeterministicAssembly(t *testing.T) {
	eng := newEngine(t, 0)
	plan, version, err := eng.PlanGrid(testGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]Scenario, plan.Total())
	for i, c := range plan.Cells {
		scs[i] = c.Scenario()
	}
	outs := Sweep(context.Background(), eng, scs, 0)
	cells := make([]CellOutcome, len(outs))
	for i, o := range outs {
		if o.Canceled {
			t.Fatalf("slot %d canceled in an uncanceled sweep", i)
		}
		cells[i] = ReduceCell(plan.Cells[i], o)
	}

	h := BuildHeatmap(plan.Geom(), version, cells)
	if h.Completed != plan.Total() || h.Total != plan.Total() {
		t.Fatalf("heatmap %d/%d, want %d/%d", h.Completed, h.Total, plan.Total(), plan.Total())
	}
	golden, err := h.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenGrid := h.RenderGrid()

	// Reverse the cell order — a resumed job merges checkpointed and
	// freshly evaluated cells in whatever order they arrive.
	rev := make([]CellOutcome, len(cells))
	for i, c := range cells {
		rev[len(cells)-1-i] = c
	}
	h2 := BuildHeatmap(plan.Geom(), version, rev)
	b2, err := h2.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != string(golden) {
		t.Error("GeoJSON differs when cells arrive out of order")
	}
	if h2.RenderGrid() != goldenGrid {
		t.Error("raster differs when cells arrive out of order")
	}
	if h2.MaxSeverity != h.MaxSeverity {
		t.Errorf("MaxSeverity %g != %g", h2.MaxSeverity, h.MaxSeverity)
	}

	// Sanity on the renderings themselves.
	if !strings.Contains(string(golden), `"FeatureCollection"`) {
		t.Error("GeoJSON lacks FeatureCollection type")
	}
	if got := strings.Count(string(golden), `"Feature"`); got != plan.Total() {
		t.Errorf("GeoJSON has %d features, want %d", got, plan.Total())
	}
	for _, r := range plan.Spec.RadiiKm {
		if !strings.Contains(goldenGrid, "radius") {
			t.Errorf("raster lacks a section for radius %g", r)
		}
	}
}

func TestHeatmapPartialAndErrorCells(t *testing.T) {
	res, _ := build(t)
	plan, err := PlanGrid(res.Map, testGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	// One completed healthy cell, one failed cell; the rest missing.
	cells := []CellOutcome{
		ReduceCell(plan.Cells[0], Outcome{Result: &Result{}}),
		ReduceCell(plan.Cells[1], Outcome{Err: "stage exploded"}),
	}
	h := BuildHeatmap(plan.Geom(), "b", cells)
	if h.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", h.Completed)
	}
	grid := h.RenderGrid()
	if !strings.Contains(grid, "!") {
		t.Error("raster does not mark the failed cell with '!'")
	}
	b, err := h.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "stage exploded") {
		t.Error("GeoJSON dropped the failed cell's error")
	}
	// Out-of-range indices are ignored rather than panicking.
	h2 := BuildHeatmap(plan.Geom(), "b", []CellOutcome{{Index: -1}, {Index: plan.Total() + 5}})
	if h2.Completed != 0 {
		t.Errorf("out-of-range cells counted as completed: %d", h2.Completed)
	}
}
