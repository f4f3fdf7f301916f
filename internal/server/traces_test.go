package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"intertubes/internal/obs"
)

// traces_test.go drives the flight-recorder surface end to end: a
// scenario request carries X-Trace-Id, the ID resolves at /api/traces
// (index) and /api/traces/{id} (JSON and Chrome trace-event formats),
// and the Chrome export shows the evaluator's stage attribution.

// traceNonce numbers uncachedScenario bodies.
var traceNonce atomic.Int64

// uncachedScenario wraps scenario fields with a fresh overrides.probes
// value. The override only matters with includeTraffic, so the
// evaluation is unchanged, but it enters the content hash: every call
// misses the shared server's cache and records the full span tree, no
// matter how often the test runs (-count).
func uncachedScenario(fields string) string {
	return fmt.Sprintf(`{%s, "overrides": {"probes": %d}}`, fields, 1000+traceNonce.Add(1))
}

func postScenario(t *testing.T, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv(t).URL+"/api/scenario", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestScenarioTraceEndToEnd(t *testing.T) {
	resp := postScenario(t, uncachedScenario(`"cutMostShared": 4`))
	if resp.StatusCode != 200 {
		t.Fatalf("scenario status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("scenario response has no X-Trace-Id header")
	}

	// The index lists the trace.
	var idx struct {
		Enabled bool               `json:"enabled"`
		Traces  []obs.TraceSummary `json:"traces"`
	}
	if r := getJSON(t, "/api/traces", &idx); r.StatusCode != 200 {
		t.Fatalf("index status %d", r.StatusCode)
	}
	if !idx.Enabled {
		t.Error("recorder reported disabled")
	}
	found := false
	for _, s := range idx.Traces {
		if s.ID == id {
			found = true
			if s.Spans < 5 {
				t.Errorf("trace %s has %d spans, want the full stage tree", id, s.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in index (%d entries)", id, len(idx.Traces))
	}

	// JSON form: the span tree carries the attribution attrs.
	var tr obs.TraceRecord
	if r := getJSON(t, "/api/traces/"+id, &tr); r.StatusCode != 200 {
		t.Fatalf("trace status %d", r.StatusCode)
	}
	attrs := map[string]map[string]string{}
	for _, s := range tr.Spans {
		m := map[string]string{}
		for _, a := range s.Attrs {
			m[a.Key] = a.Value
		}
		attrs[s.Name] = m
	}
	if attrs["scenario.evaluate"]["scenario_hash"] == "" {
		t.Errorf("evaluate span missing scenario_hash; attrs = %v", attrs["scenario.evaluate"])
	}
	if attrs["http.scenario"]["cache"] == "" {
		t.Errorf("root span missing cache outcome; attrs = %v", attrs["http.scenario"])
	}
	part := attrs["scenario.stage.partition"]
	if part["outcome"] != "recomputed" || part["touched"] == "0" || part["touched"] == "" {
		t.Errorf("partition stage attribution = %v", part)
	}

	// Chrome form: valid trace-event JSON with the stage attribution in
	// event args.
	resp2, body := get(t, "/api/traces/"+id+"?format=chrome")
	if resp2.StatusCode != 200 {
		t.Fatalf("chrome status %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("chrome content-type = %q", ct)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	var sawAttribution bool
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" && ev.Name == "scenario.stage.disconnection" {
			if ev.Args["outcome"] == "recomputed" && ev.Args["touched"] != nil {
				sawAttribution = true
			}
		}
	}
	if !sawAttribution {
		t.Error("chrome export missing reused/recomputed attribution with touched counts")
	}
}

func TestTraceNotFoundAndBadFormat(t *testing.T) {
	if resp, _ := get(t, "/api/traces/nope"); resp.StatusCode != 404 {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	resp := postScenario(t, uncachedScenario(`"cutMostShared": 2`))
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no trace ID")
	}
	if r, _ := get(t, "/api/traces/"+id+"?format=perfetto"); r.StatusCode != 400 {
		t.Errorf("bad format status = %d, want 400", r.StatusCode)
	}
}

func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	// Record one scenario so an exemplar exists.
	postScenario(t, `{"cutMostShared": 3}`)

	req, _ := http.NewRequest("GET", srv(t).URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("openmetrics content-type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Error("openmetrics body missing # EOF")
	}
	if !strings.Contains(body, "trace_id=") {
		t.Error("openmetrics body has no exemplars after a recorded evaluation")
	}
}
