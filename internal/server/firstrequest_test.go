package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"intertubes"
)

// TestConcurrentFirstRequests sends the first request for every lazily
// built product at once, on a fresh study, beside a default-size
// traffic+latency scenario that needs the same campaign and latency
// study: every lazy product builds once, and every request succeeds.
// Run under -race.
func TestConcurrentFirstRequests(t *testing.T) {
	h := NewWithConfig(intertubes.NewStudy(intertubes.Options{
		Probes:          10000,
		LatencyMaxPairs: 300,
		AddConduits:     2,
	}), discardLogger(), Config{})
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	type request struct{ method, path, body string }
	reqs := []request{{"POST", "/api/scenario", `{"cutConduits": [3], "includeTraffic": true, "includeLatency": true}`}}
	for _, name := range []string{"figure9", "table4", "figure12", "figure4", "figure11", "relay-plan"} {
		reqs = append(reqs, request{"GET", "/api/figures/" + name, ""})
	}
	var wg sync.WaitGroup
	for _, r := range reqs {
		wg.Add(1)
		go func(r request) {
			defer wg.Done()
			req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(r.body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, body)
			}
		}(r)
	}
	wg.Wait()
}
