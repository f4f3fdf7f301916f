package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// latency.go serves the all-pairs latency atlas as a paginated,
// cacheable resource. Pair order is the atlas's stable source-major
// ordering, so a page means the same thing on every request against
// one baseline; responses carry a strong ETag keyed on the baseline's
// content digest, so clients revalidate with If-None-Match and get
// 304s across restarts on the same map, and never across maps.

const (
	latencyDefaultPer = 100
	latencyMaxPer     = 1000
)

type latencyPairJSON struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	FiberMs   float64 `json:"fiberMs"`
	GeoMs     float64 `json:"geoMs"`
	Inflation float64 `json:"inflation"`
}

type latencyPageJSON struct {
	Baseline   string            `json:"baseline"`
	Page       int               `json:"page"`
	Per        int               `json:"per"`
	TotalPairs int               `json:"totalPairs"`
	TotalPages int               `json:"totalPages"`
	Pairs      []latencyPairJSON `json:"pairs"`
}

func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	page, per := 1, latencyDefaultPer
	if q := r.URL.Query().Get("page"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, "page must be a positive integer")
			return
		}
		page = n
	}
	if q := r.URL.Query().Get("per"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > latencyMaxPer {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("per must be in [1,%d]", latencyMaxPer))
			return
		}
		per = n
	}
	at, baseline := s.study.LatencyAtlas()
	etag := `"latency-` + baseline + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache") // cacheable, but always revalidated
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	pairs := at.Pairs()
	total := len(pairs)
	// Clamp before multiplying: (page-1)*per overflows for huge pages,
	// and any page past the last one is simply empty.
	lo, hi := total, total
	if page-1 <= total/per {
		lo = (page - 1) * per
		hi = min(lo+per, total)
	}
	m := s.study.Map()
	out := latencyPageJSON{
		Baseline:   baseline,
		Page:       page,
		Per:        per,
		TotalPairs: total,
		TotalPages: (total + per - 1) / per,
		Pairs:      make([]latencyPairJSON, 0, hi-lo),
	}
	for _, pl := range pairs[lo:hi] {
		out.Pairs = append(out.Pairs, latencyPairJSON{
			A:       m.Node(pl.A).Key(),
			B:       m.Node(pl.B).Key(),
			FiberMs: pl.FiberMs, GeoMs: pl.GeoMs, Inflation: pl.Inflation,
		})
	}
	s.writeJSON(w, out)
}
