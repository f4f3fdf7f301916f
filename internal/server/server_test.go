package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"intertubes"
)

var (
	testSrv   *httptest.Server
	testStudy *intertubes.Study
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// study returns the shared small-options study backing the test
// servers (built once; the map build dominates test wall time).
func study(t *testing.T) *intertubes.Study {
	t.Helper()
	if testStudy == nil {
		testStudy = intertubes.NewStudy(intertubes.Options{
			Probes:          10000,
			LatencyMaxPairs: 300,
			AddConduits:     2,
		})
	}
	return testStudy
}

func srv(t *testing.T) *httptest.Server {
	t.Helper()
	if testSrv == nil {
		// Admission limits far above anything the concurrency tests
		// throw at the shared server: those tests pin evaluation and
		// coalescing counts and must never be shed. The shedding path
		// is exercised against dedicated small-limit servers in
		// lifecycle_test.go.
		testSrv = httptest.NewServer(NewWithConfig(study(t), discardLogger(), Config{
			ScenarioInFlight: 64,
			ScenarioQueue:    64,
		}))
	}
	return testSrv
}

func get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv(t).URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getJSON(t *testing.T, path string, v any) *http.Response {
	t.Helper()
	resp, body := get(t, path)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: invalid JSON: %v\n%s", path, err, body)
	}
	return resp
}

func TestHealth(t *testing.T) {
	var out map[string]string
	resp := getJSON(t, "/healthz", &out)
	if resp.StatusCode != 200 || out["status"] != "ok" {
		t.Errorf("health = %d %v", resp.StatusCode, out)
	}
}

func TestStats(t *testing.T) {
	var out map[string]any
	resp := getJSON(t, "/api/stats", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out["isps"].(float64) != 20 {
		t.Errorf("isps = %v", out["isps"])
	}
	if out["conduits"].(float64) < 250 {
		t.Errorf("conduits = %v", out["conduits"])
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
}

func TestISPList(t *testing.T) {
	var out []map[string]any
	getJSON(t, "/api/isps", &out)
	if len(out) != 20 {
		t.Fatalf("isps = %d", len(out))
	}
	for _, isp := range out {
		if isp["name"] == "" || isp["conduits"].(float64) == 0 {
			t.Errorf("bad isp row %v", isp)
		}
	}
}

func TestISPDetail(t *testing.T) {
	var out struct {
		Name     string   `json:"name"`
		Conduits int      `json:"conduits"`
		Cities   []string `json:"cities"`
		Risk     struct {
			Mean           float64  `json:"meanSharing"`
			Rank           int      `json:"rank"`
			SuggestedPeers []string `json:"suggestedPeers"`
		} `json:"risk"`
	}
	resp := getJSON(t, "/api/isps/Sprint", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Name != "Sprint" || out.Conduits == 0 || len(out.Cities) == 0 {
		t.Errorf("detail = %+v", out)
	}
	if out.Risk.Mean <= 1 || out.Risk.Rank == 0 {
		t.Errorf("risk = %+v", out.Risk)
	}
	if len(out.Risk.SuggestedPeers) == 0 {
		t.Error("no suggested peers")
	}
}

func TestISPDetailNotFound(t *testing.T) {
	resp, body := get(t, "/api/isps/Atlantis")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "error") {
		t.Errorf("body = %s", body)
	}
}

func TestConduitsListAndFilter(t *testing.T) {
	var all, top []map[string]any
	getJSON(t, "/api/conduits", &all)
	getJSON(t, "/api/conduits?minshare=15", &top)
	if len(all) < 250 {
		t.Errorf("all conduits = %d", len(all))
	}
	if len(top) == 0 || len(top) >= len(all) {
		t.Errorf("filtered = %d of %d", len(top), len(all))
	}
	for _, c := range top {
		if c["sharing"].(float64) < 15 {
			t.Errorf("filter leaked %v", c)
		}
	}
}

func TestConduitsBadFilter(t *testing.T) {
	resp, _ := get(t, "/api/conduits?minshare=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
	resp, _ = get(t, "/api/conduits?minshare=-3")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative status = %d", resp.StatusCode)
	}
}

func TestConduitDetail(t *testing.T) {
	// Find a real conduit id from the list first.
	var all []map[string]any
	getJSON(t, "/api/conduits", &all)
	id := int(all[0]["id"].(float64))
	var out struct {
		Tenants []string `json:"tenants"`
		A       string   `json:"a"`
	}
	resp := getJSON(t, "/api/conduits/"+itoa(id), &out)
	if resp.StatusCode != 200 || len(out.Tenants) == 0 || out.A == "" {
		t.Errorf("conduit %d = %+v (%d)", id, out, resp.StatusCode)
	}
}

func itoa(v int) string {
	return string(appendInt(nil, v))
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

func TestConduitNotFound(t *testing.T) {
	for _, path := range []string{"/api/conduits/999999", "/api/conduits/xyz"} {
		resp, _ := get(t, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestRiskEndpoints(t *testing.T) {
	var sharing []struct {
		K        int `json:"k"`
		Conduits int `json:"conduits"`
	}
	getJSON(t, "/api/risk/sharing", &sharing)
	if len(sharing) != 20 || sharing[0].K != 1 {
		t.Fatalf("sharing = %v", sharing)
	}
	for i := 1; i < len(sharing); i++ {
		if sharing[i].Conduits > sharing[i-1].Conduits {
			t.Error("sharing counts must be non-increasing")
		}
	}
	var ranking []struct {
		ISP  string  `json:"isp"`
		Mean float64 `json:"meanSharing"`
	}
	getJSON(t, "/api/risk/ranking", &ranking)
	if len(ranking) != 20 {
		t.Fatalf("ranking = %d", len(ranking))
	}
}

func TestFigureEndpoints(t *testing.T) {
	for _, name := range []string{"table1", "figure1", "figure6", "figure7", "table5"} {
		resp, body := get(t, "/api/figures/"+name)
		if resp.StatusCode != 200 {
			t.Errorf("%s status = %d", name, resp.StatusCode)
		}
		if len(body) < 40 {
			t.Errorf("%s body too short", name)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s content type = %q", name, ct)
		}
	}
	resp, _ := get(t, "/api/figures/figure99")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure status = %d", resp.StatusCode)
	}
}

func TestGeoJSONEndpoints(t *testing.T) {
	for _, layer := range []string{"fibermap", "roads", "rails", "pipelines"} {
		resp, body := get(t, "/geojson/"+layer)
		if resp.StatusCode != 200 {
			t.Errorf("%s status = %d", layer, resp.StatusCode)
		}
		if !json.Valid(body) || !strings.Contains(string(body[:80]), "FeatureCollection") {
			t.Errorf("%s is not GeoJSON", layer)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
			t.Errorf("%s content type = %q", layer, ct)
		}
	}
	resp, _ := get(t, "/geojson/atlantis")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown layer status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	resp, err := http.Post(srv(t).URL+"/api/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestAnnotatedEndpoint(t *testing.T) {
	var anns []map[string]any
	getJSON(t, "/api/annotated?limit=5", &anns)
	if len(anns) != 5 {
		t.Fatalf("annotated = %d", len(anns))
	}
	for _, a := range anns {
		if a["delayMs"].(float64) <= 0 || a["sharing"].(float64) < 1 {
			t.Errorf("bad annotation %v", a)
		}
	}
	resp, _ := get(t, "/api/annotated?limit=-1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", resp.StatusCode)
	}
}

func TestResilienceEndpoint(t *testing.T) {
	var out struct {
		PartitionCosts []struct {
			ISP     string `json:"ISP"`
			MinCuts int    `json:"MinCuts"`
		} `json:"partitionCosts"`
		Criticality []struct {
			Betweenness float64 `json:"Betweenness"`
		} `json:"criticality"`
	}
	getJSON(t, "/api/resilience", &out)
	if len(out.PartitionCosts) != 20 || len(out.Criticality) != 10 {
		t.Fatalf("resilience = %d costs, %d critical", len(out.PartitionCosts), len(out.Criticality))
	}
}

func TestAnnotatedGeoJSONLayer(t *testing.T) {
	resp, body := get(t, "/geojson/annotated")
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Errorf("annotated layer: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "probesWestEast") {
		t.Error("annotations missing from GeoJSON properties")
	}
}

func TestAnnotatedBadLimit(t *testing.T) {
	resp, body := get(t, "/api/annotated?limit=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=banana status = %d", resp.StatusCode)
	}
	if !json.Valid(body) || !strings.Contains(string(body), "error") {
		t.Errorf("error body = %s", body)
	}
}

// TestMetricsEndpoint checks that /metrics serves a parseable
// Prometheus text exposition covering the HTTP layer, the study
// stages, and the worker pool.
func TestMetricsEndpoint(t *testing.T) {
	// Generate at least one measured request first, and build the
	// campaign (Figure 9 renders it) so its stage is recorded whether
	// or not another test built it before.
	get(t, "/api/stats")
	if resp, _ := get(t, "/api/figures/figure9"); resp.StatusCode != 200 {
		t.Fatalf("figure9 status %d", resp.StatusCode)
	}
	resp, body := get(t, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	// Every non-comment line must be `name{labels} value` or
	// `name value` with a parseable float — a minimal exposition
	// format check.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed metric line %q", line)
		}
		name := line[:sp]
		if strings.ContainsAny(name[:1], "0123456789{") {
			t.Errorf("bad metric name in %q", line)
		}
		if _, err := parseFloat(line[sp+1:]); err != nil {
			t.Errorf("bad value in %q: %v", line, err)
		}
	}
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",route="GET /api/stats"}`,
		"# TYPE http_request_duration_seconds histogram",
		"stage_duration_seconds_bucket",
		`stage="study.mapbuild"`,
		`stage="study.campaign"`,
		"par_chunks_executed_total",
		"par_run_wall_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func TestBuildReportEndpoint(t *testing.T) {
	var out struct {
		Stages []struct {
			Name   string `json:"name"`
			Parent string `json:"parent"`
			Calls  int64  `json:"calls"`
		} `json:"stages"`
		Report string `json:"report"`
	}
	// Figure 9 builds the campaign, so its stages are in the report
	// whether or not another test built it before.
	if resp, _ := get(t, "/api/figures/figure9"); resp.StatusCode != 200 {
		t.Fatalf("figure9 status %d", resp.StatusCode)
	}
	resp := getJSON(t, "/api/buildreport", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	names := make(map[string]bool)
	for _, st := range out.Stages {
		names[st.Name] = true
		if st.Calls == 0 {
			t.Errorf("stage %s has zero calls", st.Name)
		}
		if strings.HasPrefix(st.Name, "mapbuilder.") && st.Parent != "study.mapbuild" {
			t.Errorf("stage %s has parent %q, want study.mapbuild", st.Name, st.Parent)
		}
		if strings.HasPrefix(st.Name, "traceroute.") && st.Parent != "study.campaign" {
			t.Errorf("stage %s has parent %q, want study.campaign", st.Name, st.Parent)
		}
	}
	for _, want := range []string{"study.mapbuild", "mapbuilder.footprints", "mapbuilder.corpus",
		"mapbuilder.align", "mapbuilder.validate", "mapbuilder.assemble",
		"study.riskmatrix", "study.campaign", "traceroute.tables", "traceroute.decide",
		"traceroute.synthesize", "traceroute.reduce"} {
		if !names[want] {
			t.Errorf("build report missing stage %s (have %v)", want, names)
		}
	}
	for _, col := range []string{"stage", "wall", "items/s", "study.campaign"} {
		if !strings.Contains(out.Report, col) {
			t.Errorf("rendered report missing %q", col)
		}
	}
}

// TestStatusRecorder exercises the satellite fixes directly: byte
// accounting, implicit-200 capture, and duplicate WriteHeader calls
// being swallowed and counted rather than forwarded.
func TestStatusRecorder(t *testing.T) {
	base := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: base, status: http.StatusOK}
	n, err := rec.Write([]byte("hello "))
	if err != nil || n != 6 {
		t.Fatalf("write = %d, %v", n, err)
	}
	rec.Write([]byte("world"))
	if rec.bytes != 11 {
		t.Errorf("bytes = %d", rec.bytes)
	}
	if !rec.wroteHeader || rec.status != http.StatusOK {
		t.Errorf("implicit header: wrote=%v status=%d", rec.wroteHeader, rec.status)
	}
	// A late WriteHeader must not reach the underlying writer.
	rec.WriteHeader(http.StatusInternalServerError)
	rec.WriteHeader(http.StatusTeapot)
	if rec.dupHeaders != 2 {
		t.Errorf("dupHeaders = %d", rec.dupHeaders)
	}
	if rec.status != http.StatusOK || base.Code != http.StatusOK {
		t.Errorf("status mutated: rec=%d base=%d", rec.status, base.Code)
	}
}

func TestStatusRecorderExplicitHeader(t *testing.T) {
	base := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: base, status: http.StatusOK}
	rec.WriteHeader(http.StatusNotFound)
	if rec.status != http.StatusNotFound || base.Code != http.StatusNotFound {
		t.Errorf("status = %d / %d", rec.status, base.Code)
	}
	if rec.dupHeaders != 0 {
		t.Errorf("dupHeaders = %d", rec.dupHeaders)
	}
}

// TestWriteJSONEncodeFailure pins the satellite fix: an unencodable
// value yields a 500 with a JSON error body (because nothing has hit
// the wire yet) and bumps the failure counter.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := &Server{log: discardLogger()}
	before := encodeFailures.Value()
	rr := httptest.NewRecorder()
	s.writeJSON(rr, map[string]any{"bad": make(chan int)})
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("status = %d", rr.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body is not JSON: %s", rr.Body.String())
	}
	if out["error"] == "" {
		t.Errorf("body = %v", out)
	}
	if got := encodeFailures.Value(); got != before+1 {
		t.Errorf("encodeFailures = %d, want %d", got, before+1)
	}
}

func TestIsClientDisconnect(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{io.ErrClosedPipe, false},
		{http.ErrHandlerTimeout, true},
		{errWrap{}, false},
	}
	for _, c := range cases {
		if got := isClientDisconnect(c.err); got != c.want {
			t.Errorf("isClientDisconnect(%v) = %v", c.err, got)
		}
	}
}

type errWrap struct{}

func (errWrap) Error() string { return "opaque" }
