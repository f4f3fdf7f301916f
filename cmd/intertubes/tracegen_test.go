package main

import (
	"strings"
	"testing"

	"intertubes/internal/traceroute"
)

func TestTracegenSummaryAndSamples(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"tracegen", "-n", "3000", "-samples", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "campaign:") || !strings.Contains(s, "attribution accuracy") {
		t.Errorf("missing summary:\n%s", s)
	}
	if strings.Count(s, "traceroute ") < 2 {
		t.Errorf("expected 2 samples:\n%s", s)
	}
}

func TestTracegenTextModeParsesBack(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"tracegen", "-n", "3000", "-samples", "3", "-text"}, &out); err != nil {
		t.Fatal(err)
	}
	// The -text output must round-trip through the parser.
	body := out.String()
	idx := strings.Index(body, "traceroute to ")
	if idx < 0 {
		t.Fatalf("no text traces:\n%s", body)
	}
	traces, err := traceroute.ParseText(strings.NewReader(body[idx:]))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Errorf("parsed %d traces, want 3", len(traces))
	}
}
