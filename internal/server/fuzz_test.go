package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"intertubes"
)

// fuzz_test.go holds the scenario endpoint to its client contract on
// arbitrary bodies: a bad body is the client's error (4xx), never a
// 500 or a contained panic, and every 200 is valid JSON — so no NaN or
// ±Inf, which encoding/json refuses, can reach a Result.

var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
)

// fuzzServer is the real handler stack over a small study shared by
// every input of the fuzzing process.
func fuzzServer() http.Handler {
	fuzzOnce.Do(func() {
		st := intertubes.NewStudy(intertubes.Options{Probes: 2000, LatencyMaxPairs: 40, AddConduits: 1})
		fuzzHandler = NewWithConfig(st, discardLogger(), Config{})
	})
	return fuzzHandler
}

func FuzzScenarioHandler(f *testing.F) {
	for _, body := range []string{
		// TestScenarioBadRequests' bodies.
		`{"preset": `,
		`{"cutConduitz": [1]}`,
		`{"preset": "nope"}`,
		`{"cutConduits": [1073741824]}`,
		`{"add": [{"a": "Nowhere,ZZ", "b": "Seattle,WA"}]}`,
		`{"includeTraffic": true, "overrides": {"probes": 200000000}}`,
		`{"includeTraffic": true, "overrides": {"probes": 9223372036854775807}}`,
		// Valid bodies of each whatif-mix shape, and edge cases.
		`{}`,
		`{"regions": [{"lat": 29.95, "lon": -90.07, "radiusKm": 200}]}`,
		`{"cutConduits": [3, 17, 200, 301]}`,
		`{"removeISPs": ["Level 3"], "cutMostShared": 3}`,
		`{"add": [{"a": "Seattle,WA", "b": "Denver,CO"}]}`,
		`{"preset": "gulf-hurricane", "includeLatency": true, "overrides": {"latencyMaxPairs": 20}}`,
		`{"cutMostShared": 100000, "cutMostBetween": 100000}`,
		`{"regions": [{"lat": 39, "lon": -98, "radiusKm": 1e6}]}`,
		`{"add": [{"a": "Seattle,WA", "b": "Denver,CO", "tenants": ["Nobody"]}], "removeISPs": ["Nobody"]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzServer()
		panics := httpPanics.Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/scenario", bytes.NewReader(body)))
		if code := rec.Code; code != http.StatusOK && (code < 400 || code > 499) {
			t.Fatalf("status %d for %q: %s", code, body, rec.Body.Bytes())
		}
		if got := httpPanics.Value(); got != panics {
			t.Fatalf("http_panics_total moved %d -> %d for %q", panics, got, body)
		}
		if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("200 with invalid JSON for %q", body)
		}
	})
}
