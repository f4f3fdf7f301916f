package main

import (
	"strings"
	"testing"
)

func TestRiskreportAll(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"riskreport", "-probes", "3000"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Table 2", "Table 3", "Table 4"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("missing %q", marker)
		}
	}
}

func TestRiskreportSelection(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"riskreport", "-probes", "3000", "-fig6"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 6") {
		t.Error("missing Figure 6")
	}
	if strings.Contains(out.String(), "Table 4") {
		t.Error("unselected Table 4 rendered")
	}
}
