package main

import (
	"strings"
	"testing"
)

func TestMitigateFig10AndTable5(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"mitigate", "-fig10", "-table5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 10") || !strings.Contains(out.String(), "Table 5") {
		t.Errorf("missing artifacts:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Figure 11") {
		t.Error("unselected Figure 11 rendered")
	}
}

func TestMitigateFig11SmallK(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"mitigate", "-fig11", "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "k=2") {
		t.Errorf("sweep should reach k=2:\n%s", out.String())
	}
}
