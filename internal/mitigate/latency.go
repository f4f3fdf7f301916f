package mitigate

import (
	"context"
	"math"
	"sort"

	"intertubes/internal/atlas"
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/latency"
	"intertubes/internal/par"
)

// latency.go implements §5.3: propagation delays between major city
// pairs, compared across four route classes — the best existing
// physical conduit path, the average over existing physical paths,
// the best path along any right-of-way (deployed or not), and the
// line-of-sight lower bound.
//
// The right-of-way network is deliberately denser than the long-haul
// corridor set: the paper's National Atlas road layer contains every
// US and state highway, not just the corridors fiber follows. We model
// that by augmenting the corridor graph with secondary-highway edges
// between nearby city pairs (great-circle length times a road
// circuity factor). That is what gives new ROW-following builds room
// to beat today's fiber paths, and the line of sight remains the
// floor under everything.

// PairLatency is one city pair's row of Figure 12's CDFs. All delays
// are one-way propagation in milliseconds.
type PairLatency struct {
	A, B   fiber.NodeID
	BestMs float64 // lowest-delay existing conduit path
	AvgMs  float64 // average over existing conduit paths
	RowMs  float64 // best path along any right-of-way
	LosMs  float64 // line of sight (great circle)
}

// LatencyOptions tunes the study.
type LatencyOptions struct {
	// MaxPairs caps the number of city pairs studied (0 = no cap);
	// pairs are dropped deterministically by stride, not truncation.
	MaxPairs int
	// Workers bounds the worker pool for the all-pairs sweep (<= 0
	// means all CPUs). The result is identical for any value.
	Workers int
}

// The study's fixed model parameters.
const (
	// kPaths is how many alternative existing paths contribute to the
	// average.
	kPaths = 4
	// maxStretch drops alternative paths longer than this multiple of
	// the best; real traffic would never take them.
	maxStretch = 2.5
	// secondaryKm is the maximum great-circle distance at which two
	// cities are assumed to be joined by a secondary highway absent a
	// mapped corridor.
	secondaryKm = 250
	// secondaryCircuity inflates secondary-highway lengths over the
	// great circle.
	secondaryCircuity = 1.15
	// maxLosKm restricts the study to pairs within this line-of-sight
	// distance, matching the 1-4 ms delay range of the paper's
	// Figure 12.
	maxLosKm = 900
)

// rowGraph builds the full right-of-way graph over atlas cities:
// every corridor plus implicit secondary highways between nearby
// pairs.
func rowGraph(a *atlas.Atlas) *graph.Graph {
	g := a.Graph()
	for i := range a.Cities {
		for j := i + 1; j < len(a.Cities); j++ {
			d := a.Cities[i].Loc.DistanceKm(a.Cities[j].Loc)
			if d > secondaryKm {
				continue
			}
			g.AddEdge(i, j, d*secondaryCircuity)
		}
	}
	return g
}

// LatencyStudy computes PairLatency for every pair of the latency
// atlas's sources (the major cities) that lit conduits connect, on the
// map the atlas was built over. Pairs appear once (A < B).
// Cancellation is cooperative: the all-pairs sweep stops granting
// chunks once ctx is canceled and the call returns (nil, ctx.Err()). A
// completed study is bit-identical at any worker count.
func LatencyStudy(ctx context.Context, at *latency.Atlas, a *atlas.Atlas, opts LatencyOptions) ([]PairLatency, error) {
	m, g, litWF := at.Map(), at.Graph(), at.LitWeight()
	rg := rowGraph(a)

	type pair struct {
		ra   int // atlas row of a
		a, b fiber.NodeID
	}
	var pairs []pair
	for i := 0; i < at.NumSources(); i++ {
		for j := i + 1; j < at.NumSources(); j++ {
			na, nb := at.Source(i), at.Source(j)
			if m.Node(na).Loc.DistanceKm(m.Node(nb).Loc) > maxLosKm {
				continue
			}
			pairs = append(pairs, pair{ra: i, a: na, b: nb})
		}
	}
	if opts.MaxPairs > 0 && len(pairs) > opts.MaxPairs {
		stride := (len(pairs) + opts.MaxPairs - 1) / opts.MaxPairs
		var kept []pair
		for i := 0; i < len(pairs); i += stride {
			kept = append(kept, pairs[i])
		}
		pairs = kept
	}

	// Phase 1 — source-batched SSSP rows (internal/latency): the lit
	// rows are the atlas's, and one full Dijkstra per distinct atlas
	// city runs over the ROW graph, instead of one query per pair. A
	// pair then reads its best-existing and best-ROW distances straight
	// off matrix rows; a row value is bit-identical to the per-pair
	// query it replaces (same Dijkstra accumulation, and an
	// early-stopped run settles dst at its final distance), so the
	// output bytes are unchanged — the worker-invariance suite pins
	// this.
	rowIdx := make([]int32, rg.NumVertices()) // atlas city -> ROW matrix row
	for i := range rowIdx {
		rowIdx[i] = -1
	}
	var rowSrc []int32
	for i := 0; i < at.NumSources(); i++ {
		if ac := m.Node(at.Source(i)).AtlasCity; ac >= 0 && ac < len(rowIdx) && rowIdx[ac] < 0 {
			rowIdx[ac] = 0 // mark; renumbered after the sort below
			rowSrc = append(rowSrc, int32(ac))
		}
	}
	sort.Slice(rowSrc, func(i, j int) bool { return rowSrc[i] < rowSrc[j] })
	for i, ac := range rowSrc {
		rowIdx[ac] = int32(i)
	}
	rowMx, err := latency.BuildMatrix(ctx, rg, nil, rowSrc, opts.Workers, nil)
	if err != nil {
		return nil, err
	}

	// Phase 2 — per-pair work that a distance matrix cannot batch:
	// Yen's k-shortest-paths for the alternative-path average. Pairs
	// the atlas shows disconnected skip Yen entirely; dropped pairs are
	// filtered during the ordered reduce.
	type pairResult struct {
		pl PairLatency
		ok bool
	}
	computed, err := par.MapWith(ctx, len(pairs), opts.Workers, graph.NewWorkspace, func(i int, ws *graph.Workspace) pairResult {
		p := pairs[i]
		na, nb := m.Node(p.a), m.Node(p.b)
		pl := PairLatency{A: p.a, B: p.b}
		pl.LosMs = geo.FiberLatencyMs(na.Loc.DistanceKm(nb.Loc))

		// Best existing physical path over lit conduits, off the
		// atlas row.
		best := at.DistKm(p.ra, p.b)
		if math.IsInf(best, 0) {
			return pairResult{} // no lit path
		}
		paths := g.KShortestPaths(ws, int(p.a), int(p.b), kPaths, litWF)
		if len(paths) == 0 {
			return pairResult{}
		}
		var sum float64
		n := 0
		for _, path := range paths {
			if path.Weight > best*maxStretch {
				break
			}
			sum += path.Weight
			n++
		}
		pl.BestMs = geo.FiberLatencyMs(best)
		pl.AvgMs = geo.FiberLatencyMs(sum / float64(n))

		// Best right-of-way distance over the augmented ROW graph (the
		// route itself is not needed here, only its length).
		if na.AtlasCity >= 0 && na.AtlasCity < rg.NumVertices() &&
			nb.AtlasCity >= 0 && nb.AtlasCity < rg.NumVertices() {
			if ri := rowIdx[na.AtlasCity]; ri >= 0 {
				if d := rowMx.Row(int(ri))[nb.AtlasCity]; !math.IsInf(d, 0) {
					pl.RowMs = geo.FiberLatencyMs(d)
				}
			}
		}
		if pl.RowMs == 0 {
			pl.RowMs = pl.BestMs
		}
		return pairResult{pl: pl, ok: true}
	})
	if err != nil {
		return nil, err
	}
	out := make([]PairLatency, 0, len(pairs))
	for _, r := range computed {
		if r.ok {
			out = append(out, r.pl)
		}
	}
	return out, nil
}

// LatencySummary aggregates Figure 12's headline comparisons.
type LatencySummary struct {
	Pairs int
	// BestEqualsROW is the fraction of pairs whose best existing path
	// already achieves (within 2%) the best right-of-way delay — the
	// paper reports about 65%.
	BestEqualsROW float64
	// LosGapP50/P75 are quantiles of (best-ROW minus line-of-sight) in
	// ms (the paper: <0.1 ms for 50% of paths, >0.5 ms for 25%).
	LosGapP50, LosGapP75 float64
	// AvgToBest is the median ratio of average to best existing delay.
	AvgToBest float64
}

// Summarize derives the headline numbers from a study. Degenerate
// input — an empty study, or pairs carrying NaN/Inf delays from a
// disconnected map — never yields NaN percentiles: non-finite values
// are excluded from every quantile, and a quantile with no finite
// samples reports zero.
func Summarize(study []PairLatency) LatencySummary {
	s := LatencySummary{Pairs: len(study)}
	if len(study) == 0 {
		return s
	}
	equal := 0
	var gaps, ratios []float64
	for _, pl := range study {
		if pl.BestMs <= pl.RowMs*1.02 {
			equal++
		}
		if gap := math.Max(0, pl.RowMs-pl.LosMs); isFinite(gap) {
			gaps = append(gaps, gap)
		}
		if pl.BestMs > 0 {
			if r := pl.AvgMs / pl.BestMs; isFinite(r) {
				ratios = append(ratios, r)
			}
		}
	}
	s.BestEqualsROW = float64(equal) / float64(len(study))
	sort.Float64s(gaps)
	sort.Float64s(ratios)
	if len(gaps) > 0 {
		s.LosGapP50 = gaps[len(gaps)/2]
		s.LosGapP75 = gaps[len(gaps)*3/4]
	}
	if len(ratios) > 0 {
		s.AvgToBest = ratios[len(ratios)/2]
	}
	return s
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// CDF returns the sorted finite values of one latency class across
// the study, for rendering Figure 12. Non-finite values — a
// disconnected pair reports +Inf or NaN latency — are dropped rather
// than sorted: NaN has no total order under sort.Float64s, so a
// single unreachable pair used to scramble the whole CDF.
func CDF(study []PairLatency, pick func(PairLatency) float64) []float64 {
	out := make([]float64, 0, len(study))
	for _, pl := range study {
		v := pick(pl)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
