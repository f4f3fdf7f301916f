package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"intertubes/internal/obs"
	"intertubes/internal/scenario"
)

// scenario.go serves the what-if engine: POST a declarative Scenario,
// get the evaluated deltas back. Responses are cached by scenario
// content hash (LRU + singleflight in scenario.Cache), so identical
// queries — however concurrent — cost one evaluation, and every
// response for a given hash is byte-identical.

// maxScenarioBody bounds a scenario spec upload; real specs are a few
// hundred bytes.
const maxScenarioBody = 1 << 20

// decodeScenario parses the request body into a Scenario, rejecting
// unknown fields so typos fail loudly instead of evaluating the
// baseline. The body is bounded through http.MaxBytesReader — unlike
// a bare LimitReader, an over-limit spec is a distinguishable
// *http.MaxBytesError (mapped to 413 by decodeError) rather than a
// silent truncation that decodes as garbage, and the server stops
// reading instead of draining an unbounded upload.
func decodeScenario(w http.ResponseWriter, r *http.Request) (scenario.Scenario, error) {
	var sc scenario.Scenario
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxScenarioBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("invalid scenario spec: %w", err)
	}
	return sc, nil
}

// decodeError maps a decode failure to its status: an oversized body
// is 413, anything else a plain 400.
func (s *Server) decodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("scenario spec exceeds %d bytes", maxScenarioBody))
		return
	}
	s.writeError(w, http.StatusBadRequest, err.Error())
}

// startScenarioTrace opens a recorded trace for one scenario request
// and stamps its ID on the response, so a client can fetch the
// evaluation's span tree from /api/traces/{id} afterwards. The header
// is set before the handler writes anything; an unrecorded request
// (recorder disabled) gets no header. The handler ends the returned
// root span — sealing the trace into the store — after encoding the
// response and before writing its first byte, so a client that reads
// the response and at once asks for the trace always finds it.
func startScenarioTrace(ctx context.Context, w http.ResponseWriter, name string) (context.Context, *obs.Span) {
	ctx, sp := obs.StartTrace(ctx, name)
	if id := sp.TraceID(); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	return ctx, sp
}

// handleScenario evaluates a posted scenario and serves the Result.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	sc, err := decodeScenario(w, r)
	if err != nil {
		s.decodeError(w, err)
		return
	}
	ctx, sp := startScenarioTrace(r.Context(), w, "http.scenario")
	res, err := s.study.Scenarios().Eval(ctx, sc)
	if err != nil {
		sp.End()
		s.scenarioError(w, r, err)
		return
	}
	s.writeJSONAfter(w, res, sp.End)
}

// handleScenarioReport is the rendered-text variant of POST
// /api/scenario.
func (s *Server) handleScenarioReport(w http.ResponseWriter, r *http.Request) {
	sc, err := decodeScenario(w, r)
	if err != nil {
		s.decodeError(w, err)
		return
	}
	ctx, sp := startScenarioTrace(r.Context(), w, "http.scenario.report")
	res, err := s.study.Scenarios().Eval(ctx, sc)
	if err != nil {
		sp.End()
		s.scenarioError(w, r, err)
		return
	}
	body := scenario.Render(res)
	sp.End()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := io.WriteString(w, body); err != nil {
		s.reportWriteError(err)
	}
}

// handleScenarios lists the available presets and the currently cached
// results (most recently used first).
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]any{
		"presets": scenario.Presets(),
		"cached":  s.study.Scenarios().Entries(),
	})
}

// scenarioError maps an evaluation failure: a canceled request is the
// client's doing, anything else is a bad spec (unknown preset, node,
// or conduit).
func (s *Server) scenarioError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "evaluation canceled")
		return
	}
	s.writeError(w, http.StatusBadRequest, err.Error())
}
