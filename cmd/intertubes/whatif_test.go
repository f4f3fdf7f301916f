package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWhatifListPresets(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"whatif", "-list-presets"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"top12-cut", "gulf-hurricane", "level3-exit"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("missing preset %q in:\n%s", name, out.String())
		}
	}
}

func TestWhatifPreset(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"whatif", "-preset", "top12-cut"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"top12-cut", "conduits cut:    12", "Sharing distribution"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("missing %q in:\n%s", marker, out.String())
		}
	}
}

func TestWhatifFileJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	spec := `{"name": "two cuts", "cutConduits": [0, 1]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"whatif", "-file", path, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Hash        string `json:"hash"`
		ConduitsCut int    `json:"conduitsCut"`
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if res.Hash == "" || res.ConduitsCut != 2 {
		t.Errorf("unexpected result: %+v", res)
	}
}

// TestWhatifTraceRoundTrip pins the -trace flag: the written file must be
// valid Chrome trace-event JSON (an object with a traceEvents array of
// ph/ts events) containing the evaluation's stage spans, so it loads
// in Perfetto or chrome://tracing as-is.
func TestWhatifTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"whatif", "-preset", "top12-cut", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file is not valid trace-event JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	seen := map[string]bool{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Pid != 1 || ev.Tid < 1 || ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("malformed complete event %+v", ev)
			}
			seen[ev.Name] = true
		case "M", "i":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"whatif.evaluate", "scenario.evaluate", "scenario.stage.partition"} {
		if !seen[want] {
			t.Errorf("trace missing span %q; saw %v", want, seen)
		}
	}
}

// TestWhatifGridGeoJSON pins the -grid local mode end to end: a small
// sweep runs through the in-memory job store and lands a complete
// GeoJSON FeatureCollection in -grid-out. The duplicate radius
// exercises spec canonicalization on the CLI path.
func TestWhatifGridGeoJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heat.json")
	var out strings.Builder
	err := run([]string{
		"whatif", "-grid", "500", "-grid-radii", "80, 80",
		"-grid-format", "geojson", "-grid-out", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Type      string `json:"type"`
		Total     int    `json:"total"`
		Completed int    `json:"completed"`
		Features  []any  `json:"features"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if doc.Type != "FeatureCollection" || doc.Total == 0 ||
		doc.Completed != doc.Total || len(doc.Features) != doc.Total {
		t.Errorf("artifact %s: %d features, completed %d/%d",
			doc.Type, len(doc.Features), doc.Completed, doc.Total)
	}
	if out.Len() != 0 {
		t.Errorf("-grid-out set but stdout got %d bytes", out.Len())
	}
}

// TestWhatifGridFlagErrors covers the fail-fast rejections — none of
// these should get as far as building a study.
func TestWhatifGridFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"with-preset": {"-grid", "500", "-preset", "top12-cut"},
		"with-json":   {"-grid", "500", "-json"},
		"with-trace":  {"-grid", "500", "-trace", filepath.Join(t.TempDir(), "trace.json")},
		"bad-radii":   {"-grid", "500", "-grid-radii", "80,oops"},
		"no-radii":    {"-grid", "500", "-grid-radii", " , "},
		"bad-format":  {"-grid", "500", "-grid-format", "png"},
	} {
		if err := run(append([]string{"whatif"}, args...), &strings.Builder{}); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// A non-finite spec field fails validation, which names it.
	for field, args := range map[string][]string{
		"radius": {"-grid", "400", "-grid-radii", "+Inf"},
		"cellKm": {"-grid", "NaN"},
	} {
		err := run(append([]string{"whatif"}, args...), &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%v: err = %v, want one naming %s", args, err, field)
		}
	}
}

// TestWhatifGridTimings: -timings prints the build report after a
// grid sweep as it does after every other command.
func TestWhatifGridTimings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heat.txt")
	var out strings.Builder
	if err := run([]string{"whatif", "-grid", "500", "-grid-radii", "80", "-grid-out", path, "-timings"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "build report") {
		t.Errorf("-timings printed no build report:\n%s", out.String())
	}
}

func TestWhatifNoScenario(t *testing.T) {
	if err := run([]string{"whatif"}, &strings.Builder{}); err == nil {
		t.Error("expected an error when nothing is selected")
	}
}

func TestWhatifUnknownPreset(t *testing.T) {
	if err := run([]string{"whatif", "-preset", "nope"}, &strings.Builder{}); err == nil {
		t.Error("expected an error for an unknown preset")
	}
}
