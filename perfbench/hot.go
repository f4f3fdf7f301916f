package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intertubes/internal/latency"
	"intertubes/internal/scenario"
)

// hot.go drives whatif-hot, the dashboard read mix: scenario POSTs
// drawn from a hot set the LRU holds, latency pages, revalidations and
// scenario listings. After warm-up nothing evaluates, so every
// response must repeat its first one byte for byte.

// hotRefs are the warm-up responses every later hot response must
// repeat byte for byte.
type hotRefs struct {
	set      []encoded
	scenario [][]byte
	pages    [][]byte // index 0 is page 1
	etag     string
	atlasMs  float64
}

func runWhatifHot(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		out.spans = tr
	}
	nc := numClients()
	var refs hotRefs
	var atlasMs []float64
	prepare := func(s *stack) error {
		if refs.set != nil {
			return nil
		}
		mi := newMapInfo(s.study.Map(), s.study.RiskMatrix())
		set, err := distinctScenarios(newRand(cfg.seed, streamHotSet, 0), mi, hotSetSize)
		refs.set = set
		return err
	}
	warmUp := func(s *stack) error {
		r, err := warmHot(s, refs.set)
		if err != nil {
			return err
		}
		refs.scenario, refs.pages, refs.etag = r.scenario, r.pages, r.etag
		atlasMs = append(atlasMs, r.atlasMs)
		return nil
	}
	st, setup, err := setups(cfg.tmp, nc, tr, prepare, warmUp)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.e2e["setup_s"] = median(setup.total)
	out.record["setupRounds"] = setup.total
	refCRC := make([]uint32, len(refs.scenario))
	for i, b := range refs.scenario {
		refCRC[i] = crc32.ChecksumIEEE(b)
	}
	pageCRC := make([]uint32, len(refs.pages))
	for i, b := range refs.pages {
		pageCRC[i] = crc32.ChecksumIEEE(b)
	}

	gens := make([]*hotOps, nc)
	for i := range gens {
		gens[i] = newHotOps(cfg.seed, i, hotSetSize, len(refs.pages))
	}
	// A few listings per client are kept whole for decoding afterwards;
	// their order changes with every hit, so only the rest's status is
	// checked.
	const keepLists = 8
	lists := make([][][]byte, nc)
	var opID atomic.Int64
	whole := openWindow()
	run := func(d time.Duration, tr *tracer) phase {
		return closedLoop(st.clients, d, func(ci int, c *client) (sample, bool) {
			op := gens[ci].next()
			id := opID.Add(1)
			var s sample
			var resp response
			switch op.kind {
			case opScenario:
				s, resp = timed(c, st, tr, id, http.MethodPost, "/api/scenario", refs.set[op.index].body, nil)
			case opPage:
				s, resp = timed(c, st, tr, id, http.MethodGet, latencyPath(op.index), nil, nil)
			case opRevalidate:
				s, resp = timed(c, st, tr, id, http.MethodGet, latencyPath(op.index), nil,
					map[string]string{"If-None-Match": refs.etag})
			case opList:
				s, resp = timed(c, st, tr, id, http.MethodGet, "/api/scenarios", nil, nil)
				if s.err == nil && len(lists[ci]) < keepLists {
					lists[ci] = append(lists[ci], bytes.Clone(resp.body))
				}
			}
			s.kind, s.index = op.kind, op.index
			return s, true
		})
	}
	untraced, traced := phases(cfg, tr, run)
	all := whole.close()
	if err := out.markPeakRSS(); err != nil {
		return nil, err
	}
	e2eFromPhase(out, untraced)

	// Checks, outside every timed window.
	samples := append(append([]sample(nil), untraced.samples...), traced.samples...)
	out.attempted = len(samples)
	counts := make(map[string]int)
	for _, s := range samples {
		counts[opNames[s.kind]]++
		if s.err != nil {
			out.fail("%s: %v", opNames[s.kind], s.err)
			continue
		}
		switch s.kind {
		case opScenario:
			if s.status != http.StatusOK || s.crc != refCRC[s.index] {
				out.fail("hot scenario %d: status %d, body differs from its first response", s.index, s.status)
			}
		case opPage:
			if s.status != http.StatusOK || s.crc != pageCRC[s.index-1] {
				out.fail("latency page %d: status %d, body differs from its first response", s.index, s.status)
			}
		case opRevalidate:
			if s.status != http.StatusNotModified || s.size != 0 {
				out.fail("latency page %d revalidation: status %d, %d body bytes", s.index, s.status, s.size)
			}
		case opList:
			if s.status != http.StatusOK {
				out.fail("scenario listing: status %d", s.status)
			}
		}
	}
	out.record["opCounts"] = counts
	if err := checkHotRefs(st, refs, lists, cfg.seed); err != nil {
		out.fail("%v", err)
	}
	if cfg.traced {
		fillRequestLayers(out, untraced, traced, all)
		fillLatencyLayers(out, traced)
		out.layers["latency.atlas_build_ms"] = median(atlasMs)
		out.layers["mapbuilder.build_s"] = median(setup.builds)
		finishLayers(out)
	}
	return out, nil
}

func latencyPath(page int) string {
	return "/api/latency?page=" + strconv.Itoa(page) + "&per=" + strconv.Itoa(latencyPer)
}

// warmHot fills the cache with the hot set, fetches every latency page
// once (the first request builds the atlas), and checks one
// revalidation and one listing.
func warmHot(s *stack, set []encoded) (hotRefs, error) {
	r := hotRefs{scenario: make([][]byte, len(set))}
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(set); i += len(s.clients) {
				resp, err := c.do(http.MethodPost, "/api/scenario", set[i].body, nil)
				if err == nil && resp.status != http.StatusOK {
					err = fmt.Errorf("hot scenario %d: status %d", i, resp.status)
				}
				if err != nil {
					errs[ci] = err
					return
				}
				r.scenario[i] = bytes.Clone(resp.body)
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	c := s.clients[0]
	start := time.Now()
	resp, err := c.do(http.MethodGet, latencyPath(1), nil, nil)
	r.atlasMs = ms(time.Since(start))
	if err != nil {
		return r, err
	}
	if resp.status != http.StatusOK {
		return r, fmt.Errorf("latency page 1: status %d", resp.status)
	}
	var first struct {
		TotalPages int `json:"totalPages"`
	}
	if err := json.Unmarshal(resp.body, &first); err != nil || first.TotalPages < 1 {
		return r, fmt.Errorf("latency page 1: %d pages, %v", first.TotalPages, err)
	}
	r.etag = resp.header.Get("ETag")
	r.pages = append(r.pages, bytes.Clone(resp.body))
	for p := 2; p <= first.TotalPages; p++ {
		resp, err := c.do(http.MethodGet, latencyPath(p), nil, nil)
		if err != nil {
			return r, err
		}
		if resp.status != http.StatusOK {
			return r, fmt.Errorf("latency page %d: status %d", p, resp.status)
		}
		r.pages = append(r.pages, bytes.Clone(resp.body))
	}
	resp, err = c.do(http.MethodGet, latencyPath(1), nil, map[string]string{"If-None-Match": r.etag})
	if err != nil || resp.status != http.StatusNotModified {
		return r, fmt.Errorf("latency revalidation: status %d, %v", resp.status, err)
	}
	resp, err = c.do(http.MethodGet, "/api/scenarios", nil, nil)
	if err != nil || resp.status != http.StatusOK {
		return r, fmt.Errorf("scenario listing: status %d, %v", resp.status, err)
	}
	return r, nil
}

// checkHotRefs validates the reference responses every timed response
// was compared against: scenario bodies decode with the right hash and
// a seed-drawn few equal a direct evaluation; latency pages equal
// Atlas.Pairs(); kept listings decode and list only hot-set results.
func checkHotRefs(st *stack, refs hotRefs, lists [][][]byte, seed int64) error {
	eng := directEngine(st)
	for _, i := range sampleIndexes(seed, len(refs.set), directSample/2) {
		if err := checkResult(refs.scenario[i], refs.set[i].hash); err != nil {
			return fmt.Errorf("hot scenario %d: %w", i, err)
		}
		if err := checkDirect(eng, refs.set[i].sc, refs.scenario[i]); err != nil {
			return fmt.Errorf("hot scenario %d: %w", i, err)
		}
	}
	for i := range refs.set {
		if err := checkResult(refs.scenario[i], refs.set[i].hash); err != nil {
			return fmt.Errorf("hot scenario %d: %w", i, err)
		}
	}
	at, _ := st.study.LatencyAtlas()
	if err := checkPages(st, at, refs.pages); err != nil {
		return err
	}
	hot := make(map[string]bool, len(refs.set))
	for _, e := range refs.set {
		hot[e.hash] = true
	}
	for _, per := range lists {
		for _, body := range per {
			var l struct {
				Presets []json.RawMessage  `json:"presets"`
				Cached  []scenario.Summary `json:"cached"`
			}
			if err := json.Unmarshal(body, &l); err != nil {
				return fmt.Errorf("scenario listing: %w", err)
			}
			if len(l.Presets) == 0 || len(l.Cached) == 0 || len(l.Cached) > scenario.DefaultCacheCapacity {
				return fmt.Errorf("scenario listing: %d presets, %d cached", len(l.Presets), len(l.Cached))
			}
			for _, c := range l.Cached {
				if !hot[c.Hash] {
					return fmt.Errorf("scenario listing names %s, not in the hot set", c.Hash)
				}
			}
		}
	}
	return nil
}

// checkPages compares the served latency pages with the atlas.
func checkPages(st *stack, at *latency.Atlas, pages [][]byte) error {
	pairs := at.Pairs()
	m := st.study.Map()
	k := 0
	for p, body := range pages {
		var page struct {
			Page  int `json:"page"`
			Pairs []struct {
				A         string  `json:"a"`
				B         string  `json:"b"`
				FiberMs   float64 `json:"fiberMs"`
				GeoMs     float64 `json:"geoMs"`
				Inflation float64 `json:"inflation"`
			} `json:"pairs"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("latency page %d: %w", p+1, err)
		}
		for _, got := range page.Pairs {
			if k >= len(pairs) {
				return fmt.Errorf("latency page %d: more pairs than Atlas.Pairs()", p+1)
			}
			want := pairs[k]
			if got.A != m.Node(want.A).Key() || got.B != m.Node(want.B).Key() ||
				got.FiberMs != want.FiberMs || got.GeoMs != want.GeoMs || got.Inflation != want.Inflation {
				return fmt.Errorf("latency page %d: pair %d differs from Atlas.Pairs()", p+1, k)
			}
			k++
		}
	}
	if k != len(pairs) {
		return fmt.Errorf("latency pages hold %d pairs, Atlas.Pairs() has %d", k, len(pairs))
	}
	return nil
}

// fillLatencyLayers adds the latency-page metrics of a traced hot run.
func fillLatencyLayers(out *outcome, traced phase) {
	var pageMs float64
	var pages, revals, notModified int
	for _, s := range traced.samples {
		switch s.kind {
		case opPage:
			if s.layers != nil {
				pageMs += ms(s.layers.handler)
				pages++
			}
		case opRevalidate:
			revals++
			if s.status == http.StatusNotModified {
				notModified++
			}
		}
	}
	out.layers["latency.page_ms"] = ratio(pageMs, float64(pages))
	out.layers["latency.not_modified_ratio"] = ratio(float64(notModified), float64(revals))
}
