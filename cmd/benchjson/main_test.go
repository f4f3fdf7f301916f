package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("intertubes",
		"BenchmarkFigure1_MapConstruction-8 \t     120\t   9876543 ns/op\t  456 B/op\t   7 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "BenchmarkFigure1_MapConstruction" || r.N != 120 {
		t.Errorf("parsed = %+v", r)
	}
	want := map[string]float64{"ns/op": 9876543, "B/op": 456, "allocs/op": 7}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("%s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

func TestParseBenchLineRejects(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"goos: linux",
		"BenchmarkBroken-8",     // no fields
		"BenchmarkOdd-8 10 123", // dangling value without unit
		"BenchmarkBadN-8 ten 123 ns/op",
		"ok  \tintertubes\t1.2s",
	} {
		if _, ok := parseBenchLine("p", line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestStripCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkA-8":                         "BenchmarkA",
		"BenchmarkA-16":                        "BenchmarkA",
		"BenchmarkA":                           "BenchmarkA",
		"BenchmarkWorkersCampaign/workers=2-8": "BenchmarkWorkersCampaign/workers=2",
		"BenchmarkAblation/buffer-10km":        "BenchmarkAblation/buffer-10km", // non-numeric tail kept
		"BenchmarkOdd-":                        "BenchmarkOdd-",
	} {
		if got := stripCPUSuffix(in); got != want {
			t.Errorf("stripCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseStream(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"start","Package":"intertubes"}`,
		`{"Action":"output","Package":"intertubes","Output":"goos: linux\n"}`,
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkA-4   100   50000 ns/op\n"}`,
		`{"Action":"output","Package":"intertubes/internal/par","Output":"BenchmarkB-4   7   1.5 items/s\n"}`,
		`{"Action":"pass","Package":"intertubes"}`,
		`not json at all`,
	}, "\n")
	sum, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d", len(sum.Benchmarks))
	}
	if sum.Benchmarks[0].Name != "BenchmarkA" || sum.Benchmarks[0].Metrics["ns/op"] != 50000 {
		t.Errorf("first = %+v", sum.Benchmarks[0])
	}
	if sum.Benchmarks[1].Package != "intertubes/internal/par" {
		t.Errorf("second package = %q", sum.Benchmarks[1].Package)
	}
}

// TestParseStreamSplitLines covers test2json's partial-line flushing:
// a slow benchmark's name and stats arrive as separate output events
// (no newline between them) and must be reassembled per package.
func TestParseStreamSplitLines(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkSlow   \t"}`,
		`{"Action":"output","Package":"intertubes/other","Output":"BenchmarkOther-4 3 7 ns/op\n"}`,
		`{"Action":"output","Package":"intertubes","Output":"       1\t     28045 ns/op\t   19648 B/op\t      15 allocs/op\n"}`,
	}, "\n")
	sum, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v", sum.Benchmarks)
	}
	if sum.Benchmarks[0].Name != "BenchmarkOther" {
		t.Errorf("first = %+v", sum.Benchmarks[0])
	}
	slow := sum.Benchmarks[1]
	if slow.Name != "BenchmarkSlow" || slow.N != 1 || slow.Metrics["allocs/op"] != 15 {
		t.Errorf("reassembled = %+v", slow)
	}
}

// TestParseStreamScenarioPairs covers the clone-vs-overlay scenario
// benchmarks: each path is a sub-benchmark, the CPU suffix strips off
// the sub-name, and BENCH_obs.json ends up holding both sides of each
// pair so the overlay speedup ratio can be read straight from it.
func TestParseStreamScenarioPairs(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkScenarioEvaluate/clone-8   \t      30\t  37168390 ns/op\n"}`,
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkScenarioEvaluate/overlay-8 \t     900\t   1311498 ns/op\n"}`,
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkScenarioSweep/clone-8      \t       2\t 687559410 ns/op\t        16.00 scenarios/op\n"}`,
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkScenarioSweep/overlay-8    \t      66\t  17425461 ns/op\t        16.00 scenarios/op\n"}`,
	}, "\n")
	sum, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	nsOf := map[string]float64{}
	for _, b := range sum.Benchmarks {
		nsOf[b.Name] = b.Metrics["ns/op"]
	}
	for _, pair := range []string{"BenchmarkScenarioEvaluate", "BenchmarkScenarioSweep"} {
		clone, overlay := nsOf[pair+"/clone"], nsOf[pair+"/overlay"]
		if clone == 0 || overlay == 0 {
			t.Fatalf("%s pair incomplete: %+v", pair, nsOf)
		}
		if clone <= overlay {
			t.Errorf("%s: clone %v ns/op not slower than overlay %v ns/op", pair, clone, overlay)
		}
	}
	if v := nsOf["BenchmarkScenarioSweep/overlay"]; v != 17425461 {
		t.Errorf("sweep overlay ns/op = %v", v)
	}
}

// TestDeriveOverheadRatios pins the synthetic recorder-overhead record:
// a recorder=on/off pair in the same package yields a
// "<base>/recorder-overhead" result carrying the on/off ns-per-op
// ratio, and unpaired or cross-package results derive nothing.
func TestDeriveOverheadRatios(t *testing.T) {
	sum := &Summary{Benchmarks: []Result{
		{Package: "intertubes", Name: "BenchmarkTracingOverhead/recorder=off", N: 800, Metrics: map[string]float64{"ns/op": 1400000}},
		{Package: "intertubes", Name: "BenchmarkTracingOverhead/recorder=on", N: 780, Metrics: map[string]float64{"ns/op": 1442000}},
		{Package: "other", Name: "BenchmarkLonely/recorder=on", N: 10, Metrics: map[string]float64{"ns/op": 50}},
	}}
	deriveOverheadRatios(sum)
	if len(sum.Benchmarks) != 4 {
		t.Fatalf("benchmarks = %d, want 4 (one derived): %+v", len(sum.Benchmarks), sum.Benchmarks)
	}
	d := sum.Benchmarks[3]
	if d.Package != "intertubes" || d.Name != "BenchmarkTracingOverhead/recorder-overhead" {
		t.Errorf("derived = %+v", d)
	}
	ratio := d.Metrics["ratio"]
	if ratio < 1.029 || ratio > 1.031 {
		t.Errorf("ratio = %v, want 1442000/1400000 = 1.03", ratio)
	}
}

// TestDeriveOverheadRatiosEndToEnd checks the derivation rides the
// full parse pipeline, including CPU-suffix stripping on the
// sub-benchmark names.
func TestDeriveOverheadRatiosEndToEnd(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkTracingOverhead/recorder=off-8 \t     847\t   1411775 ns/op\n"}`,
		`{"Action":"output","Package":"intertubes","Output":"BenchmarkTracingOverhead/recorder=on-8  \t     860\t   1382905 ns/op\n"}`,
	}, "\n")
	sum, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	deriveOverheadRatios(sum)
	var got *Result
	for i := range sum.Benchmarks {
		if sum.Benchmarks[i].Name == "BenchmarkTracingOverhead/recorder-overhead" {
			got = &sum.Benchmarks[i]
		}
	}
	if got == nil {
		t.Fatalf("no derived record in %+v", sum.Benchmarks)
	}
	want := 1382905.0 / 1411775.0
	if r := got.Metrics["ratio"]; r < want-1e-9 || r > want+1e-9 {
		t.Errorf("ratio = %v, want %v", r, want)
	}
}

// TestDeriveCellRates pins the grid-sweep throughput derivation: a
// benchmark reporting a "cells" count gains a "cells/s" metric from
// its ns/op; results without the count are untouched.
func TestDeriveCellRates(t *testing.T) {
	sum := &Summary{Benchmarks: []Result{
		{Package: "intertubes", Name: "BenchmarkGridSweep", N: 3,
			Metrics: map[string]float64{"ns/op": 2e9, "cells": 50}},
		{Package: "intertubes", Name: "BenchmarkFigure8_Hamming", N: 100,
			Metrics: map[string]float64{"ns/op": 1e6}},
	}}
	deriveCellRates(sum)
	if got := sum.Benchmarks[0].Metrics["cells/s"]; got != 25 {
		t.Errorf("cells/s = %v, want 25", got)
	}
	if _, ok := sum.Benchmarks[1].Metrics["cells/s"]; ok {
		t.Errorf("cells/s derived without a cells count: %+v", sum.Benchmarks[1])
	}
}

func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	stream := `{"Action":"output","Package":"p","Output":"BenchmarkX-2 5 100 ns/op\n"}`
	var errBuf strings.Builder
	if err := run([]string{"-o", out}, strings.NewReader(stream), &errBuf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(sum.Benchmarks) != 1 || sum.Benchmarks[0].Name != "BenchmarkX" {
		t.Errorf("summary = %+v", sum)
	}
	if !strings.Contains(errBuf.String(), "1 benchmarks") {
		t.Errorf("stderr = %q", errBuf.String())
	}
}

func writeBaseline(t *testing.T, sum Summary) string {
	t.Helper()
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaseline(t *testing.T) {
	base := writeBaseline(t, Summary{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkFast", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 3}},
		{Package: "p", Name: "BenchmarkOnlyInBaseline", Metrics: map[string]float64{"ns/op": 50}},
	}})
	within := &Summary{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkFast", Metrics: map[string]float64{"ns/op": 120, "allocs/op": 0}},
		{Package: "p", Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 999}},
	}}
	var errBuf strings.Builder
	if err := compareBaseline(within, base, 0.25, &errBuf); err != nil {
		t.Fatalf("+20%% within a 25%% tolerance failed: %v", err)
	}
	// Each compared benchmark keeps its numbers: both sides' ns/op, the
	// ratio and both sides' allocs/op, ahead of the verdict.
	const line = "benchjson: compared p BenchmarkFast: 100 -> 120 ns/op (x1.200), allocs/op 3 -> 0\n"
	i, j := strings.Index(errBuf.String(), line), strings.Index(errBuf.String(), "1 benchmarks within")
	if i < 0 || j < 0 || i > j {
		t.Errorf("stderr = %q, want %q before the verdict for exactly one compared benchmark", errBuf.String(), line)
	}
	// A benchmark on one side only is named, never silently skipped.
	for _, name := range []string{"p BenchmarkOnlyInBaseline", "p BenchmarkNew"} {
		if !strings.Contains(errBuf.String(), "not compared") || !strings.Contains(errBuf.String(), name) {
			t.Errorf("stderr = %q, want %q listed as not compared", errBuf.String(), name)
		}
	}

	// A run that shares no benchmark with the baseline compares
	// nothing, and that fails.
	moved := &Summary{Benchmarks: []Result{
		{Package: "q", Name: "BenchmarkFast", Metrics: map[string]float64{"ns/op": 100}},
	}}
	errBuf.Reset()
	if err := compareBaseline(moved, base, 0.25, &errBuf); err == nil {
		t.Fatal("a run with nothing to compare passed")
	}

	regressed := &Summary{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkFast", Metrics: map[string]float64{"ns/op": 130}},
	}}
	errBuf.Reset()
	err := compareBaseline(regressed, base, 0.25, &errBuf)
	if err == nil {
		t.Fatal("+30% past a 25% tolerance did not fail")
	}
	if !strings.Contains(errBuf.String(), "REGRESSION p BenchmarkFast") {
		t.Errorf("stderr = %q, want a named regression line", errBuf.String())
	}
	// A side run without -benchmem reports its allocs/op as "-".
	if want := "compared p BenchmarkFast: 100 -> 130 ns/op (x1.300), allocs/op 3 -> -\n"; !strings.Contains(errBuf.String(), want) {
		t.Errorf("stderr = %q, want %q", errBuf.String(), want)
	}
}

func TestCompareBaselineViaRun(t *testing.T) {
	base := writeBaseline(t, Summary{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 100}},
	}})
	out := filepath.Join(t.TempDir(), "bench.json")
	stream := `{"Action":"output","Package":"p","Output":"BenchmarkX-2 5 500 ns/op\n"}`
	var errBuf strings.Builder
	err := run([]string{"-o", out, "-baseline", base}, strings.NewReader(stream), &errBuf)
	if err == nil {
		t.Fatal("5x regression did not fail the run")
	}
	if _, statErr := os.Stat(out); statErr != nil {
		t.Errorf("summary not written despite regression: %v", statErr)
	}
}
