package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"intertubes/internal/obs"
)

func post(t *testing.T, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv(t).URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func evalCounter(t *testing.T) int64 {
	t.Helper()
	return obs.GetCounter("scenario_evaluations_total",
		"Scenario evaluations actually executed (cache hits and singleflight followers excluded).").Value()
}

func TestScenarioEndpoint(t *testing.T) {
	resp, body := post(t, "/api/scenario", `{"preset": "top12-cut"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Hash        string `json:"hash"`
		ConduitsCut int    `json:"conduitsCut"`
		Stats       struct {
			Before struct {
				Links int `json:"Links"`
			} `json:"before"`
			After struct {
				Links int `json:"Links"`
			} `json:"after"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if out.Hash == "" || out.ConduitsCut != 12 {
		t.Errorf("result headline = %+v", out)
	}
	if out.Stats.After.Links >= out.Stats.Before.Links {
		t.Errorf("links did not drop: %+v", out.Stats)
	}
}

// TestScenarioCachedHit is the acceptance criterion: a repeated POST
// must be served from the cache without re-evaluating, observable on
// the evaluation counter.
func TestScenarioCachedHit(t *testing.T) {
	spec := `{"removeISPs": ["Comcast"]}`
	_, first := post(t, "/api/scenario", spec)

	before := evalCounter(t)
	resp, second := post(t, "/api/scenario", spec)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	if got := evalCounter(t) - before; got != 0 {
		t.Errorf("cached POST re-evaluated %d times", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached response is not byte-identical to the first")
	}
}

func TestScenarioBadRequests(t *testing.T) {
	cases := []struct{ name, body string }{
		{"malformed JSON", `{"preset": `},
		{"unknown field", `{"cutConduitz": [1]}`},
		{"unknown preset", `{"preset": "nope"}`},
		{"out-of-range conduit", `{"cutConduits": [1073741824]}`},
		{"unknown node", `{"add": [{"a": "Nowhere,ZZ", "b": "Seattle,WA"}]}`},
		// A campaign allocates its probe decisions up front: these
		// would ask for 8 GB and for more than an int can count.
		{"huge probes", `{"includeTraffic": true, "overrides": {"probes": 200000000}}`},
		{"max-int probes", `{"includeTraffic": true, "overrides": {"probes": 9223372036854775807}}`},
	}
	for _, tc := range cases {
		panicsBefore := httpPanics.Value()
		resp, body := post(t, "/api/scenario", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		if got := httpPanics.Value(); got != panicsBefore {
			t.Errorf("%s: http_panics_total moved %d -> %d", tc.name, panicsBefore, got)
		}
	}
}

func TestScenarioReportEndpoint(t *testing.T) {
	resp, body := post(t, "/api/scenario/report", `{"preset": "gulf-hurricane"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	for _, marker := range []string{"gulf-hurricane", "Sharing distribution", "Per-provider disconnection"} {
		if !bytes.Contains(body, []byte(marker)) {
			t.Errorf("report missing %q", marker)
		}
	}
}

func TestScenarioListEndpoint(t *testing.T) {
	// Ensure at least one cached entry exists.
	post(t, "/api/scenario", `{"preset": "top12-cut"}`)

	var out struct {
		Presets []struct {
			Name string `json:"name"`
		} `json:"presets"`
		Cached []struct {
			Hash string `json:"hash"`
		} `json:"cached"`
	}
	resp := getJSON(t, "/api/scenarios", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Presets) < 5 {
		t.Errorf("presets = %d", len(out.Presets))
	}
	if len(out.Cached) == 0 {
		t.Error("no cached entries listed")
	}
}

// TestScenarioConcurrent hammers the endpoint with identical and
// distinct scenarios under the race detector: identical in-flight
// queries must collapse to one evaluation each (singleflight), and
// every response for a given hash must be byte-identical.
func TestScenarioConcurrent(t *testing.T) {
	srv(t) // materialize the study before measuring the counter

	const distinct = 4
	const perScenario = 8
	specs := make([]string, distinct)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"cutConduits": [%d, %d]}`, 50+i, 60+i)
	}

	before := evalCounter(t)
	bodies := make([][][]byte, distinct)
	for i := range bodies {
		bodies[i] = make([][]byte, perScenario)
	}
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		for j := 0; j < perScenario; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				resp, body := post(t, "/api/scenario", specs[i])
				if resp.StatusCode != 200 {
					t.Errorf("scenario %d: status %d", i, resp.StatusCode)
					return
				}
				bodies[i][j] = body
			}(i, j)
		}
	}
	wg.Wait()

	// Singleflight + cache: each distinct scenario evaluated exactly
	// once across all 32 concurrent requests.
	if got := evalCounter(t) - before; got != distinct {
		t.Errorf("evaluations = %d, want %d", got, distinct)
	}
	for i := range bodies {
		for j := 1; j < perScenario; j++ {
			if !bytes.Equal(bodies[i][j], bodies[i][0]) {
				t.Fatalf("scenario %d: response %d differs from response 0", i, j)
			}
		}
	}
	// Distinct scenarios must not alias each other.
	for i := 1; i < distinct; i++ {
		if bytes.Equal(bodies[i][0], bodies[0][0]) {
			t.Errorf("scenario %d response identical to scenario 0", i)
		}
	}
}
