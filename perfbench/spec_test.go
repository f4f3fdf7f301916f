package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and spec.go in
// agreement: the same workloads with the same reasons, and the same
// metric names, units, directions and bounds.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, spec.go %q %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	if len(b.Command) < 2 || b.Command[1] != "perfbench/run.sh" {
		t.Errorf("command = %v, want the perfbench/run.sh runner", b.Command)
	}
}

// TestSpecNames checks what the gate requires of every name, reason
// and bound, and that setup_s carries the largest bound.
func TestSpecNames(t *testing.T) {
	seen := make(map[string]bool)
	valid := func(s string, max int, extra string) bool {
		if s == "" || len(s) > max {
			return false
		}
		for i, r := range s {
			ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune(extra, r)
			if !ok || (i == 0 && strings.ContainsRune(extra, r)) {
				return false
			}
		}
		return true
	}
	name := func(kind, n string) {
		if !valid(n, 64, "_.-") {
			t.Errorf("%s name %q is not 1-64 letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: reason must be one line of at most 200 characters", w.name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		name("end-to-end", m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
		if m.bound > maxBound {
			maxBound = m.bound
		}
		if m.name == "setup_s" {
			setupBound = m.bound
			if m.unit != "s" || m.better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range perLayer {
		name("per-layer", m.name)
	}
	for _, m := range reported {
		name("reported", m.name)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !valid(m.unit, 16, "_/%.-") {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	for w, as := range issueNames {
		if _, ok := findWorkload(w); !ok {
			t.Errorf("aliases for unknown workload %s", w)
		}
		for _, a := range as {
			found := false
			for _, m := range append(append([]metric(nil), endToEnd...), reported...) {
				found = found || m.name == a.source
			}
			if !found {
				t.Errorf("%s: alias %s names unknown metric %s", w, a.name, a.source)
			}
		}
	}
}
