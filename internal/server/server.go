// Package server exposes a completed Study over HTTP: map statistics,
// per-provider and per-conduit detail, the risk metrics, every
// rendered table/figure, and the GeoJSON layers. It is the
// programmatic counterpart of the paper's data release through the
// PREDICT portal.
//
// The API is side-effect-free and JSON-first (the scenario POSTs
// evaluate queries; they never mutate the study):
//
//	GET /healthz                    liveness
//	GET /metrics                    Prometheus text exposition
//	GET /api/buildreport            per-stage build report (see internal/obs)
//	GET /api/stats                  map statistics (Figure 1 numbers)
//	GET /api/isps                   provider list with footprint sizes
//	GET /api/isps/{name}            provider detail + risk profile
//	GET /api/conduits?minshare=K    conduit list, optionally filtered
//	GET /api/conduits/{id}          conduit detail
//	GET /api/risk/sharing           Figure 6 counts
//	GET /api/risk/ranking           Figure 7 rows
//	GET /api/figures/{name}         rendered artifact (text/plain)
//	GET /api/latency?page=N&per=M   paginated all-pairs latency atlas (ETag per baseline)
//	GET /api/annotated?limit=N      annotated map (traffic + delay per conduit)
//	GET /api/resilience             partition costs + conduit criticality
//	POST /api/scenario              evaluate a what-if scenario (JSON deltas)
//	POST /api/scenario/report       same, rendered as text
//
// The scenario POSTs are admission-limited (bounded in-flight slots
// plus a small wait queue); overflow is shed with 429 and Retry-After.
// Specs over 1 MiB are rejected with 413. Every handler runs under
// panic containment: a panic yields a 500 and a counted metric, never
// a crashed server.
//
//	GET /api/scenarios              scenario presets + cached results
//	GET /geojson/{layer}            fibermap | roads | rails | pipelines | annotated
//
// The batch lane (internal/jobs) serves long-running grid sweeps on
// its own serial runner, checkpointed and resumable, without touching
// the interactive admission limits:
//
//	POST /api/jobs/sweep            submit a disaster-grid sweep (idempotent by spec+baseline)
//	GET  /api/jobs                  job listing + store stats
//	GET  /api/jobs/{id}             one job's status and progress
//	POST /api/jobs/{id}/cancel      terminally cancel a job
//	GET  /api/jobs/{id}/stream      SSE partial results as cell chunks complete
//	GET  /api/jobs/{id}/result      heatmap artifact (?format=geojson|grid)
//
// Every request is measured (count, duration, status, bytes, per
// route) into the internal/obs registry that /metrics serves.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"intertubes"
	"intertubes/internal/fiber"
	"intertubes/internal/jobs"
	"intertubes/internal/obs"
)

// Server-side metric handles, resolved once at package init; request
// handling touches only atomics.
var (
	encodeFailures = obs.GetCounter("server_json_encode_failures_total",
		"JSON responses that failed to encode.")
	writeFailClient = obs.GetCounter("http_write_failures_total",
		"Response writes that failed, by cause.", obs.L("kind", "client_disconnect"))
	writeFailServer = obs.GetCounter("http_write_failures_total",
		"Response writes that failed, by cause.", obs.L("kind", "server"))
	dupWriteHeaders = obs.GetCounter("http_write_header_duplicates_total",
		"WriteHeader calls after the header was already written.")
	httpPanics = obs.GetCounter("http_panics_total",
		"Handler panics contained by the recovery middleware.")
	scenarioShed = obs.GetCounter("scenario_requests_shed_total",
		"Scenario requests rejected with 429 because in-flight and queue capacity were exhausted.")
	scenarioQueueDepth = obs.GetGauge("scenario_queue_depth",
		"Scenario requests currently waiting for an in-flight slot.")
)

// routeMetrics is the pre-resolved instrument set for one route
// pattern (or the synthetic "unmatched" route).
type routeMetrics struct {
	duration *obs.Histogram
	bytes    *obs.Histogram
	byCode   map[int]*obs.Counter // common codes, read-only after init
	route    string
}

func newRouteMetrics(route string) *routeMetrics {
	rm := &routeMetrics{
		route: route,
		duration: obs.GetHistogram("http_request_duration_seconds",
			"Request latency by route.", nil, obs.L("route", route)),
		bytes: obs.GetHistogram("http_response_bytes",
			"Response body size by route.", obs.SizeBuckets, obs.L("route", route)),
		byCode: make(map[int]*obs.Counter),
	}
	for _, code := range []int{200, 400, 404, 405, 500} {
		rm.byCode[code] = rm.requestCounter(code)
	}
	return rm
}

func (rm *routeMetrics) requestCounter(code int) *obs.Counter {
	return obs.GetCounter("http_requests_total",
		"Requests served, by route and status code.",
		obs.L("route", rm.route), obs.L("code", strconv.Itoa(code)))
}

func (rm *routeMetrics) observe(code int, bytes int64, d time.Duration) {
	c := rm.byCode[code]
	if c == nil {
		c = rm.requestCounter(code) // rare codes pay the registry lookup
	}
	c.Inc()
	rm.duration.Observe(d.Seconds())
	rm.bytes.Observe(float64(bytes))
}

// Server serves a Study; it is safe for concurrent use, as the Study is.
type Server struct {
	study           *intertubes.Study
	mux             *http.ServeMux
	log             *slog.Logger
	routes          map[string]*routeMetrics
	unmatched       *routeMetrics
	scenarioLimiter *limiter
	jobs            *jobs.Store
	ownJobs         bool // store was defaulted here, Close tears it down
}

// NewWithConfig builds a Server with the given request-lifecycle
// tuning. It builds the study's Robustness; every other lazy product
// builds once, on the first request that needs it. A nil logger falls
// back to the shared obs handler.
func NewWithConfig(study *intertubes.Study, logger *slog.Logger, cfg Config) *Server {
	if logger == nil {
		logger = obs.Logger("server")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		study:           study,
		mux:             http.NewServeMux(),
		log:             logger,
		routes:          make(map[string]*routeMetrics),
		unmatched:       newRouteMetrics("unmatched"),
		scenarioLimiter: newLimiter(cfg.ScenarioInFlight, cfg.ScenarioQueue, cfg.RetryAfter),
		jobs:            cfg.Jobs,
	}
	if s.jobs == nil {
		// Default in-memory store over the study's scenario engine so
		// the /api/jobs surface always works; fibermapd injects a
		// persistent one via Config.Jobs for checkpoint/resume.
		store, err := jobs.NewStore(study.Scenarios().Engine(), jobs.Options{})
		if err != nil {
			// NewStore without a directory cannot fail; guard anyway.
			logger.Error("default job store", "err", err)
		} else {
			s.jobs = store
			s.ownJobs = true
		}
	}
	study.Robustness()
	s.registerRoutes()
	return s
}

// Close releases resources the server created itself — currently the
// defaulted in-memory job store. An injected Config.Jobs store stays
// open; its owner closes it.
func (s *Server) Close() {
	if s.ownJobs && s.jobs != nil {
		s.jobs.Close()
	}
}

// ServeHTTP implements http.Handler: every request is wrapped in a
// statusRecorder, run under panic containment, measured into the
// per-route metrics, and logged through the structured logger. A
// panicking handler still produces a measured, logged 500.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.serveContained(rec, r)
	d := time.Since(start)
	rm := s.routes[rec.route]
	if rm == nil {
		rm = s.unmatched
	}
	rm.observe(rec.status, rec.bytes, d)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", rm.route),
		slog.Int("status", rec.status),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("duration", d.Round(time.Microsecond)),
	)
}

// statusRecorder captures the response status and body size. A second
// WriteHeader call is counted (metric + field) instead of being
// forwarded, which would panic in net/http's superfluous-call check.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
	dupHeaders  int
	route       string // matched mux pattern, set by the route wrapper
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.wroteHeader {
		r.dupHeaders++
		dupWriteHeaders.Inc()
		return
	}
	r.wroteHeader = true
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.NewResponseController,
// so streaming handlers (the jobs SSE endpoint) can Flush and clear
// the write deadline through the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		// The implicit 200 the underlying writer is about to send.
		r.wroteHeader = true
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// handle registers a handler and pre-resolves its route metrics; the
// wrapper stamps the matched pattern onto the recorder so ServeHTTP
// can attribute the request without consulting the mux again.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routes[pattern] = newRouteMetrics(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			rec.route = pattern
		}
		h(w, r)
	})
}

func (s *Server) registerRoutes() {
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /api/buildreport", s.handleBuildReport)
	s.handle("GET /api/stats", s.handleStats)
	s.handle("GET /api/isps", s.handleISPs)
	s.handle("GET /api/isps/{name}", s.handleISP)
	s.handle("GET /api/conduits", s.handleConduits)
	s.handle("GET /api/conduits/{id}", s.handleConduit)
	s.handle("GET /api/risk/sharing", s.handleSharing)
	s.handle("GET /api/risk/ranking", s.handleRanking)
	s.handle("GET /api/figures/{name}", s.handleFigure)
	s.handle("GET /api/latency", s.handleLatency)
	s.handle("GET /api/annotated", s.handleAnnotated)
	s.handle("GET /api/resilience", s.handleResilience)
	s.handle("GET /api/traces", s.handleTraces)
	s.handle("GET /api/traces/{id}", s.handleTrace)
	s.handle("POST /api/scenario", s.limited(s.handleScenario))
	s.handle("POST /api/scenario/report", s.limited(s.handleScenarioReport))
	s.handle("GET /api/scenarios", s.handleScenarios)
	s.handle("GET /geojson/{layer}", s.handleGeoJSON)
	if s.jobs != nil {
		s.handle("POST /api/jobs/sweep", s.handleJobSubmit)
		s.handle("GET /api/jobs", s.handleJobs)
		s.handle("GET /api/jobs/{id}", s.handleJob)
		s.handle("POST /api/jobs/{id}/cancel", s.handleJobCancel)
		s.handle("GET /api/jobs/{id}/stream", s.handleJobStream)
		s.handle("GET /api/jobs/{id}/result", s.handleJobResult)
	}
}

// handleMetrics serves the obs registry: HTTP route metrics, study
// stage durations, runtime gauges, and internal/par pool activity.
// Classic Prometheus 0.0.4 text by default; the OpenMetrics rendering
// (with trace-ID exemplars) under an openmetrics Accept header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.ServeMetrics(w, r)
}

// handleBuildReport serves the per-stage build report, both as
// structured stage stats and as the rendered text table.
func (s *Server) handleBuildReport(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]any{
		"stages": obs.Snapshot(),
		"report": s.study.BuildReport(),
	})
}

// handleAnnotated serves the §8 annotated map (traffic + delay per
// conduit). ?limit=N truncates.
func (s *Server) handleAnnotated(w http.ResponseWriter, r *http.Request) {
	anns := s.study.AnnotatedMap()
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		if n < len(anns) {
			anns = anns[:n]
		}
	}
	s.writeJSON(w, anns)
}

// handleResilience serves the fiber-cut analyses: partition costs and
// conduit criticality.
func (s *Server) handleResilience(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]any{
		"partitionCosts": s.study.PartitionCosts(),
		"criticality":    s.study.Criticality(10),
	})
}

// writeJSON renders v. Encoding happens before anything reaches the
// wire, so an encode failure still produces a clean 500 with a JSON
// body; a failure writing the encoded bytes means headers are already
// sent, so it is logged and counted but cannot change the response.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONAfter(w, v, func() {})
}

// writeJSONAfter is writeJSON with a hook that runs once the response
// is encoded (or failed to encode) and before its first byte is
// written.
func (s *Server) writeJSONAfter(w http.ResponseWriter, v any, beforeWrite func()) {
	raw, err := json.MarshalIndent(v, "", " ")
	beforeWrite()
	if err != nil {
		encodeFailures.Inc()
		s.log.Error("response encode failed", "err", err)
		s.writeError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(raw, '\n')); err != nil {
		s.reportWriteError(err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

// reportWriteError classifies a failed response write: a client that
// went away is routine (debug log, client_disconnect metric); anything
// else is a server-side problem worth an error log.
func (s *Server) reportWriteError(err error) {
	if err == nil {
		return
	}
	if isClientDisconnect(err) {
		writeFailClient.Inc()
		s.log.Debug("client disconnected mid-response", "err", err)
		return
	}
	writeFailServer.Inc()
	s.log.Error("response write failed", "err", err)
}

// isClientDisconnect reports whether a response-write error was caused
// by the peer rather than the server.
func isClientDisconnect(err error) bool {
	if errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, context.Canceled) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, http.ErrHandlerTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.study.Map().Stats()
	var service map[string]any
	if s.jobs != nil {
		service = s.serviceStats()
	}
	s.writeJSON(w, map[string]any{
		"service":       service,
		"nodes":         st.Nodes,
		"links":         st.Links,
		"conduits":      st.Conduits,
		"isps":          st.ISPs,
		"totalKm":       st.TotalKm,
		"avgTenancy":    st.AvgTenancy,
		"maxSharing":    st.MaxSharing,
		"sharedByGE2":   st.SharedByGE2,
		"sharedByGE3":   st.SharedByGE3,
		"sharedByGE4":   st.SharedByGE4,
		"sharedByGT17":  st.SharedByGT17,
		"paperHeadline": "273 nodes, 2411 links, 542 conduits",
	})
}

type ispSummary struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Conduits int    `json:"conduits"`
}

func (s *Server) handleISPs(w http.ResponseWriter, _ *http.Request) {
	m := s.study.Map()
	var out []ispSummary
	for _, isp := range m.ISPs() {
		out = append(out, ispSummary{
			Name:     isp,
			Nodes:    len(m.NodesOf(isp)),
			Conduits: len(m.ConduitsOf(isp)),
		})
	}
	s.writeJSON(w, out)
}

func (s *Server) handleISP(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m := s.study.Map()
	conduits := m.ConduitsOf(name)
	if len(conduits) == 0 {
		s.writeError(w, http.StatusNotFound, "unknown provider "+name)
		return
	}
	var risk struct {
		Mean           float64  `json:"meanSharing"`
		P25            float64  `json:"p25"`
		P75            float64  `json:"p75"`
		Rank           int      `json:"rank"`
		SuggestedPeers []string `json:"suggestedPeers"`
	}
	for pos, row := range s.study.RiskMatrix().Ranking() {
		if row.ISP == name {
			risk.Mean, risk.P25, risk.P75, risk.Rank = row.Mean, row.P25, row.P75, pos+1
		}
	}
	for _, rob := range s.study.Robustness() {
		if rob.ISP == name {
			risk.SuggestedPeers = rob.SuggestedPeers
		}
	}
	cities := make([]string, 0)
	for _, nid := range m.NodesOf(name) {
		cities = append(cities, m.Node(nid).Key())
	}
	s.writeJSON(w, map[string]any{
		"name":     name,
		"nodes":    len(cities),
		"cities":   cities,
		"conduits": len(conduits),
		"risk":     risk,
	})
}

type conduitSummary struct {
	ID       int     `json:"id"`
	A        string  `json:"a"`
	B        string  `json:"b"`
	LengthKm float64 `json:"lengthKm"`
	Sharing  int     `json:"sharing"`
}

func (s *Server) handleConduits(w http.ResponseWriter, r *http.Request) {
	minShare := 0
	if q := r.URL.Query().Get("minshare"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.writeError(w, http.StatusBadRequest, "minshare must be a non-negative integer")
			return
		}
		minShare = v
	}
	m := s.study.Map()
	out := make([]conduitSummary, 0)
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 || len(c.Tenants) < minShare {
			continue
		}
		out = append(out, conduitSummary{
			ID:       int(c.ID),
			A:        m.Node(c.A).Key(),
			B:        m.Node(c.B).Key(),
			LengthKm: c.LengthKm,
			Sharing:  len(c.Tenants),
		})
	}
	s.writeJSON(w, out)
}

func (s *Server) handleConduit(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	m := s.study.Map()
	if err != nil || id < 0 || id >= len(m.Conduits) {
		s.writeError(w, http.StatusNotFound, "no such conduit")
		return
	}
	c := m.Conduit(fiber.ConduitID(id))
	if len(c.Tenants) == 0 {
		s.writeError(w, http.StatusNotFound, "conduit is not in the published map")
		return
	}
	s.writeJSON(w, map[string]any{
		"id":       id,
		"a":        m.Node(c.A).Key(),
		"b":        m.Node(c.B).Key(),
		"lengthKm": c.LengthKm,
		"tenants":  c.Tenants,
		"sharing":  len(c.Tenants),
	})
}

func (s *Server) handleSharing(w http.ResponseWriter, _ *http.Request) {
	counts := s.study.RiskMatrix().SharingCounts()
	type row struct {
		K        int `json:"k"`
		Conduits int `json:"conduits"`
	}
	out := make([]row, len(counts))
	for i, c := range counts {
		out[i] = row{K: i + 1, Conduits: c}
	}
	s.writeJSON(w, out)
}

func (s *Server) handleRanking(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		ISP      string  `json:"isp"`
		Conduits int     `json:"conduits"`
		Mean     float64 `json:"meanSharing"`
		P25      float64 `json:"p25"`
		P75      float64 `json:"p75"`
	}
	var out []row
	for _, r := range s.study.RiskMatrix().Ranking() {
		out = append(out, row{ISP: r.ISP, Conduits: r.Conduits, Mean: r.Mean, P25: r.P25, P75: r.P75})
	}
	s.writeJSON(w, out)
}

// figureRenderers maps artifact names to Study methods.
func (s *Server) figureRenderers() map[string]func() string {
	st := s.study
	return map[string]func() string{
		"table1":            st.RenderTable1,
		"step3":             st.RenderStep3,
		"figure1":           st.RenderFigure1,
		"figure4":           st.RenderFigure4,
		"figure6":           st.RenderFigure6,
		"figure7":           st.RenderFigure7,
		"figure8":           st.RenderFigure8,
		"figure9":           st.RenderFigure9,
		"table2":            st.RenderTable2,
		"table3":            st.RenderTable3,
		"table4":            st.RenderTable4,
		"figure10":          st.RenderFigure10,
		"table5":            st.RenderTable5,
		"figure11":          st.RenderFigure11,
		"figure12":          st.RenderFigure12,
		"latency-inflation": st.RenderInflationCDF,
		"relay-plan":        func() string { return st.RenderRelayPlan(3) },
	}
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	render, ok := s.figureRenderers()[name]
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown artifact "+name)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := fmt.Fprint(w, render()); err != nil {
		s.reportWriteError(err)
	}
}

func (s *Server) handleGeoJSON(w http.ResponseWriter, r *http.Request) {
	layer := r.PathValue("layer")
	var raw []byte
	var err error
	res := s.study.Result()
	switch layer {
	case "fibermap":
		raw, err = res.Map.GeoJSON()
	case "roads":
		raw, err = fiber.LayerGeoJSON("roads", res.Atlas.RoadPolylines())
	case "rails":
		raw, err = fiber.LayerGeoJSON("rails", res.Atlas.RailPolylines())
	case "pipelines":
		raw, err = fiber.LayerGeoJSON("pipelines", res.Atlas.PipelinePolylines())
	case "annotated":
		raw, err = s.study.AnnotatedGeoJSON()
	default:
		s.writeError(w, http.StatusNotFound, "unknown layer "+layer)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/geo+json")
	if _, err := w.Write(raw); err != nil {
		s.reportWriteError(err)
	}
}
