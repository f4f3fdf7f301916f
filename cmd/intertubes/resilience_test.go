package main

import (
	"strings"
	"testing"
)

func TestResilience(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"resilience", "-k", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"criticality", "cutting 4 conduits", "Minimum conduit cuts"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("missing %q", marker)
		}
	}
}

func TestResilienceTimings(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"resilience", "-k", "2", "-timings"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"stage", "wall", "study.resilience"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("timings output missing %q", marker)
		}
	}
}

func TestResilienceDisaster(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"resilience", "-k", "2", "-disaster", "29.95,-90.07,350"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"regional-disaster", "conduits cut", "Per-provider disconnection"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("disaster output missing %q", marker)
		}
	}
}

func TestResilienceBadDisaster(t *testing.T) {
	if err := run([]string{"resilience", "-disaster", "not-a-region"}, &strings.Builder{}); err == nil {
		t.Error("expected error for malformed -disaster")
	}
	// fmt.Sscanf's %f reads NaN; the scenario's validation rejects it.
	if err := run([]string{"resilience", "-k", "1", "-disaster", "NaN,-90,350"}, &strings.Builder{}); err == nil {
		t.Error("expected error for a NaN -disaster latitude")
	}
}

func TestResilienceBadLogLevel(t *testing.T) {
	if err := run([]string{"resilience", "-log-level", "shouting"}, &strings.Builder{}); err == nil {
		t.Error("expected error for unknown log level")
	}
}
