package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"intertubes/internal/jobs"
	"intertubes/internal/scenario"
)

// jobs.go serves the batch-analysis subsystem: submit a disaster-grid
// sweep, watch it stream, fetch its artifacts. The job store runs at
// most one sweep at a time on its own runner goroutine, so these
// routes never contend with the interactive scenario admission lane —
// a sweep can grind for minutes while POST /api/scenario stays green.

// maxJobBody bounds a grid-spec upload; real specs are tens of bytes.
const maxJobBody = 1 << 16

// handleJobSubmit admits a sweep. Submission is idempotent by content:
// an identical spec against the same baseline returns the existing
// job. A full queue sheds with 429 + Retry-After, mirroring the
// interactive scenario lane's admission behavior.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec scenario.GridSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.decodeError(w, fmt.Errorf("invalid grid spec: %w", err))
		return
	}
	st, err := s.jobs.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		s.writeError(w, http.StatusTooManyRequests, "job queue full")
		return
	case errors.Is(err, jobs.ErrShutdown):
		s.writeError(w, http.StatusServiceUnavailable, "job store shutting down")
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
	s.writeJSON(w, st)
}

// handleJobs lists every job, newest-submitted last.
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]any{
		"jobs":  s.jobs.List(),
		"stats": s.jobs.Stats(),
	})
}

// handleJob serves one job's status and progress.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeJSON(w, st)
}

// handleJobCancel terminally cancels a job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeJSON(w, st)
}

// handleJobResult serves the job's heatmap artifact. ?format=geojson
// (default) renders the FeatureCollection; ?format=grid the ASCII
// raster. Partial artifacts are served while the job runs — the
// completed/total fields say how much is in — and the bytes become
// the deterministic final artifact once the job is done. Until then
// the response carries Cache-Control: no-store, so an intermediary
// never pins a half-built GeoJSON as if it were the final artifact.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, stErr := s.jobs.Get(id)
	h, err := s.jobs.Heatmap(id)
	if errors.Is(err, jobs.ErrNotFound) {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if stErr == nil && !st.State.Terminal() {
		w.Header().Set("Cache-Control", "no-store")
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "geojson":
		raw, err := h.GeoJSON()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/geo+json")
		if _, err := w.Write(raw); err != nil {
			s.reportWriteError(err)
		}
	case "grid":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := fmt.Fprint(w, h.RenderGrid()); err != nil {
			s.reportWriteError(err)
		}
	default:
		s.writeError(w, http.StatusBadRequest, "format must be geojson or grid")
	}
}

// handleJobStream serves Server-Sent Events: one JSON Event per line
// of progress (state transitions and chunks of completed cells). The
// stream ends when the job reaches a terminal state or the client
// goes away. The write deadline is cleared for this response — a
// sweep legitimately outlives the server's WriteTimeout.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.jobs.Get(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	ch, detach, err := s.jobs.Subscribe(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	defer detach()

	rc := http.NewResponseController(w)
	if err := rc.SetWriteDeadline(time.Time{}); err != nil {
		s.log.Debug("jobs stream: clearing write deadline failed", "err", err)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(v any) bool {
		raw, err := json.Marshal(v)
		if err != nil {
			encodeFailures.Inc()
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			s.reportWriteError(err)
			return false
		}
		if err := rc.Flush(); err != nil {
			s.reportWriteError(err)
			return false
		}
		return true
	}

	// Opening snapshot so a subscriber always knows where the job
	// stands, even if no further events ever fire.
	if !send(jobs.Event{JobID: st.ID, State: st.State, Err: st.Err,
		Total: st.Total, Completed: st.Completed}) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !send(ev) {
				return
			}
		}
	}
}

// serviceStats is the admission-control snapshot embedded in GET
// /api/stats: the interactive scenario lane and the batch job lane
// side by side.
func (s *Server) serviceStats() map[string]any {
	return map[string]any{
		"scenarioQueueDepth": int(scenarioQueueDepth.Value()),
		"scenarioShedTotal":  scenarioShed.Value(),
		"jobs":               s.jobs.Stats(),
	}
}
