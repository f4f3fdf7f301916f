package scenario

import (
	"context"
	"sync"
	"sync/atomic"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/mitigate"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
)

// snapshot.go holds the engine's immutable baseline state. Everything
// an evaluation reads — the map, the risk matrix, the memoized
// baseline study stages, and the shared tables the copy-on-write
// overlay evaluation consults — lives in one snapshot value behind an
// atomic pointer, so a baseline swap is a single pointer store and an
// in-flight evaluation keeps the snapshot it started with. Snapshots
// are versioned; the serving cache folds the version into its keys so
// a swapped baseline can never serve results computed against the old
// one.

// snapshot is one immutable baseline: inputs, memoized baseline
// analyses, and the overlay evaluation tables. All lazily-built state
// is guarded (sync.Once or a mutex) and append-only, so concurrent
// evaluations share one snapshot freely.
type snapshot struct {
	version uint64
	res     *mapbuilder.Result
	mx      *risk.Matrix

	baseOnce sync.Once
	base     baseline

	// Overlay tables, built with the baseline: the conduit graph,
	// and per matrix-ISP the dense unit weight row (1 on the provider's
	// conduits, +Inf elsewhere), baseline footprint (ascending vertex
	// ids), and index.
	g        *graph.Graph
	ispIdx   map[string]int
	ispW     [][]float64
	ispVerts [][]int

	// Betweenness cut ranking, memoized for ResolveCuts: the full
	// positive-betweenness ordering, of which every CutMostBetween
	// request is a prefix.
	btwOnce sync.Once
	btwRank []fiber.ConduitID

	// Capacity-layer baseline (capacity.go): gravity demands, the
	// conduit capacity table, and memoized per-pair baseline flows.
	capOnce sync.Once
	capBase capacityBaseline

	// All-pairs latency atlas (atlas.go), built lazily behind an
	// atomic pointer — the CSR-topology idiom: a hit is one load, a
	// miss takes the mutex, double-checks, builds once. litComp holds
	// the union-find components of the lit-conduit graph that the
	// overlay row-reuse rule consults.
	atlasMu  sync.Mutex
	atlasPtr atomic.Pointer[latency.Atlas]
	litOnce  sync.Once
	litComp  []int32

	latMu   sync.Mutex
	latBase map[int]mitigate.LatencySummary // by MaxPairs

	trafMu   sync.Mutex
	trafBase map[int]TrafficSummary // by Probes
}

// baseline is everything Evaluate diffs against, computed once per
// snapshot.
type baseline struct {
	stats   fiber.Stats
	sharing []int
	rankOf  map[string]int
	meanOf  map[string]float64
	disc    map[string]resilience.Impact
	part    map[string]int
}

func newSnapshot(version uint64, res *mapbuilder.Result, mx *risk.Matrix) *snapshot {
	return &snapshot{
		version:  version,
		res:      res,
		mx:       mx,
		latBase:  make(map[int]mitigate.LatencySummary),
		trafBase: make(map[int]TrafficSummary),
	}
}

func (s *snapshot) baseline() *baseline {
	s.baseOnce.Do(func() {
		m := s.res.Map
		b := &s.base
		b.stats = m.Stats()
		b.sharing = s.mx.SharingCounts()
		b.rankOf = make(map[string]int)
		b.meanOf = make(map[string]float64)
		for pos, r := range s.mx.Ranking() {
			b.rankOf[r.ISP] = pos + 1
			b.meanOf[r.ISP] = r.Mean
		}
		b.disc = make(map[string]resilience.Impact)
		for _, im := range resilience.CutImpact(m, s.mx, nil) {
			b.disc[im.ISP] = im
		}
		b.part = make(map[string]int)
		for _, pc := range resilience.PartitionCosts(m, s.mx.ISPs) {
			b.part[pc.ISP] = pc.MinCuts
		}

		// Overlay tables ride along: every evaluation reads them, and
		// the first one also needs the baseline itself.
		s.g = m.Graph()
		s.ispIdx = make(map[string]int, len(s.mx.ISPs))
		s.ispW = make([][]float64, len(s.mx.ISPs))
		s.ispVerts = make([][]int, len(s.mx.ISPs))
		for i, isp := range s.mx.ISPs {
			s.ispIdx[isp] = i
			s.ispW[i], s.ispVerts[i] = resilience.ProviderRow(m, isp)
		}
	})
	return &s.base
}

// betweennessRank memoizes the full betweenness cut ordering; a
// CutMostBetween=k clause resolves to its first k entries, exactly
// what resilience.TargetedByBetweenness(m, k) returns.
func (s *snapshot) betweennessRank() []fiber.ConduitID {
	s.btwOnce.Do(func() {
		s.btwRank = resilience.TargetedByBetweenness(s.res.Map, s.res.Map.NumConduits())
	})
	return s.btwRank
}

// baselineLatency memoizes the snapshot's baseline latency summary per
// pair cap. A canceled computation is not cached; the next caller
// recomputes.
func (e *Engine) baselineLatency(ctx context.Context, snap *snapshot, maxPairs int) (mitigate.LatencySummary, error) {
	snap.latMu.Lock()
	if s, ok := snap.latBase[maxPairs]; ok {
		snap.latMu.Unlock()
		return s, nil
	}
	snap.latMu.Unlock()
	study, err := mitigate.LatencyStudyCtx(ctx, snap.res.Map, snap.res.Atlas, mitigate.LatencyOptions{
		MaxPairs: maxPairs,
		Workers:  e.opts.Workers,
	})
	if err != nil {
		return mitigate.LatencySummary{}, err
	}
	s := mitigate.Summarize(study)
	snap.latMu.Lock()
	snap.latBase[maxPairs] = s
	snap.latMu.Unlock()
	return s, nil
}

// baselineTraffic memoizes the snapshot's baseline traffic overlay per
// campaign size. A canceled campaign is not cached; the next caller
// recomputes.
func (e *Engine) baselineTraffic(ctx context.Context, snap *snapshot, probes int) (TrafficSummary, error) {
	snap.trafMu.Lock()
	if s, ok := snap.trafBase[probes]; ok {
		snap.trafMu.Unlock()
		return s, nil
	}
	snap.trafMu.Unlock()
	s, err := e.trafficOn(ctx, snap.res, probes)
	if err != nil {
		return TrafficSummary{}, err
	}
	snap.trafMu.Lock()
	snap.trafBase[probes] = s
	snap.trafMu.Unlock()
	return s, nil
}
