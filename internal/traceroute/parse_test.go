package traceroute

import (
	"context"
	"strings"
	"testing"
)

const sampleTraceText = `traceroute to Denver,CO from Chicago,IL
 1  ae-1.chicil.level3.net  0.412 ms
 2  * * *
 3  ae-7.omahne.level3.net  9.120 ms
 4  ae-2.denvco.level3.net  18.400 ms

traceroute to Seattle,WA from Boston,MA
 1  ae-3.bostma.sprintlink.net  0.300 ms
 2  ae-4.albany.sprintlink.net  3.100 ms
`

func TestParseTextBasic(t *testing.T) {
	traces, err := ParseText(strings.NewReader(sampleTraceText))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.Dest != "Denver,CO" {
		t.Errorf("dest = %q", tr.Dest)
	}
	if len(tr.Hops) != 4 {
		t.Fatalf("hops = %d", len(tr.Hops))
	}
	if tr.Hops[1].Name != "" {
		t.Errorf("star hop name = %q", tr.Hops[1].Name)
	}
	if tr.Hops[3].Name != "ae-2.denvco.level3.net" || tr.Hops[3].RTTms != 18.4 {
		t.Errorf("hop 4 = %+v", tr.Hops[3])
	}
}

func TestParseTextHeaderless(t *testing.T) {
	text := " 1  ae-1.chicil.level3.net  0.4 ms\n 2  ae-2.denvco.level3.net  9.0 ms\n" +
		" 1  ae-1.bostma.att.net  0.2 ms\n 2  ae-9.newyny.att.net  2.2 ms\n"
	traces, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// Index resetting to 1 splits traces.
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
}

func TestParseTextGarbageInsideTrace(t *testing.T) {
	text := " 1  ae-1.chicil.level3.net  0.4 ms\nnot a hop line\n"
	if _, err := ParseText(strings.NewReader(text)); err == nil {
		t.Error("expected error for garbage inside a trace")
	}
}

func TestParseTextEmpty(t *testing.T) {
	traces, err := ParseText(strings.NewReader(""))
	if err != nil || len(traces) != 0 {
		t.Errorf("empty input: %v, %v", traces, err)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	_, c := campaign(t)
	for _, tr := range c.Samples[:5] {
		text := c.FormatText(tr)
		parsed, err := ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("round trip: %v\n%s", err, text)
		}
		if len(parsed) != 1 {
			t.Fatalf("round trip produced %d traces", len(parsed))
		}
		if len(parsed[0].Hops) != len(tr.Hops) {
			t.Fatalf("hops %d != %d", len(parsed[0].Hops), len(tr.Hops))
		}
		for i, h := range parsed[0].Hops {
			if h.Name != tr.Hops[i].Name {
				t.Errorf("hop %d name %q != %q", i, h.Name, tr.Hops[i].Name)
			}
		}
	}
}

func TestOverlayParsedMergesCounts(t *testing.T) {
	res, _ := campaign(t)
	// A fresh small campaign to overlay into.
	c, _ := Run(context.Background(), res, res.Map, Options{N: 500, Seed: 31})
	beforeChecked := c.AttributionChecked

	// Render some synthetic traces to text, then re-ingest them.
	var text strings.Builder
	for _, tr := range c.Samples {
		text.WriteString(c.FormatText(tr))
		text.WriteString("\n")
	}
	parsed, err := ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	n := c.OverlayParsed(parsed)
	if n == 0 {
		t.Fatal("no parsed traces contributed")
	}
	if c.AttributionChecked <= beforeChecked {
		t.Error("overlay did not add attributions")
	}
}

func TestOverlayParsedIgnoresUnresolvable(t *testing.T) {
	res, _ := campaign(t)
	c, _ := Run(context.Background(), res, res.Map, Options{N: 200, Seed: 32})
	parsed := []ParsedTrace{
		{Hops: []ParsedHop{{Index: 1, Name: "ae-1.unknowable.example.org"}, {Index: 2}}},
		{Hops: []ParsedHop{{Index: 1, Name: "ae-1.chicil.level3.net"}}}, // single hop
	}
	if n := c.OverlayParsed(parsed); n != 0 {
		t.Errorf("unusable traces contributed %d", n)
	}
}
