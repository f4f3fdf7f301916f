package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/memo"
	"intertubes/internal/mitigate"
	"intertubes/internal/obs"
	"intertubes/internal/par"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
	"intertubes/internal/traceroute"
)

// snapshot.go holds the engine's immutable baseline state. Everything
// an evaluation reads — the map, the risk matrix, the memoized
// baseline study stages, and the shared tables the copy-on-write
// overlay evaluation consults — lives in the one snapshot an engine is
// built with. Its identity is its content: Baseline digests the map
// and the provider list, so two engines over equal maps agree on it in
// any process.

// resultFormat enters every baseline digest. Bump it when a change to
// the evaluation code changes what a Result or a grid cell holds, so
// identities minted by the older code stop matching.
const resultFormat = "intertubes-result-1"

// snapshot is one immutable baseline: its inputs and memoized
// products. Each product is a memo field, built by its first caller
// and shared after that, so evaluations share a snapshot freely.
type snapshot struct {
	res *mapbuilder.Result
	mx  *risk.Matrix

	digest   memo.Value[string]
	base     memo.Value[*baseline]
	btw      memo.Value[[]fiber.ConduitID]
	capBase  memo.Value[*capacityBaseline]          // capacity.go
	lit      memo.Value[[]int32]                    // atlas.go
	atlas    memo.Value[*latency.Atlas]             // atlas.go
	campaign memo.Value[*traceroute.Campaign]       // at Options.Probes
	latStudy memo.Value[[]mitigate.PairLatency]     // at Options.LatencyMaxPairs
	latSum   memo.Map[int, mitigate.LatencySummary] // by pair cap
	trafSum  memo.Map[int, TrafficSummary]          // by campaign size
}

// baseline is everything Evaluate diffs against, computed once per
// snapshot, plus the overlay tables every evaluation reads: the
// conduit graph, and per matrix-ISP the dense unit weight row (1 on
// the provider's conduits, +Inf elsewhere), baseline footprint
// (ascending vertex ids), and index.
type baseline struct {
	stats   fiber.Stats
	sharing []int
	rankOf  map[string]int
	meanOf  map[string]float64
	disc    map[string]resilience.Impact
	part    map[string]int

	g        *graph.Graph
	ispIdx   map[string]int
	ispW     [][]float64
	ispVerts [][]int
}

// kept returns a product whose build reads no context and cannot fail.
func kept[V any](v *memo.Value[V], build func() V) V {
	x, _ := v.Get(context.TODO(), func(context.Context) (V, error) { return build(), nil })
	return x
}

func (s *snapshot) baseline() *baseline {
	return kept(&s.base, func() *baseline {
		m := s.res.Map
		b := &baseline{
			stats:    m.Stats(),
			sharing:  s.mx.SharingCounts(),
			rankOf:   make(map[string]int),
			meanOf:   make(map[string]float64),
			disc:     make(map[string]resilience.Impact),
			part:     make(map[string]int),
			g:        fiber.Graph(m),
			ispIdx:   make(map[string]int, len(s.mx.ISPs)),
			ispW:     make([][]float64, len(s.mx.ISPs)),
			ispVerts: make([][]int, len(s.mx.ISPs)),
		}
		for pos, r := range s.mx.Ranking() {
			b.rankOf[r.ISP] = pos + 1
			b.meanOf[r.ISP] = r.Mean
		}
		for _, im := range resilience.CutImpact(m, s.mx, nil) {
			b.disc[im.ISP] = im
		}
		for _, pc := range resilience.PartitionCosts(m, s.mx.ISPs) {
			b.part[pc.ISP] = pc.MinCuts
		}
		for i, isp := range s.mx.ISPs {
			b.ispIdx[isp] = i
			b.ispW[i], b.ispVerts[i] = resilience.ProviderRow(m, isp)
		}
		return b
	})
}

// Baseline names the engine's baseline by content: a hex sha256 over
// resultFormat, the map in fiber.WriteMap's dataset encoding (the
// bytes ExportDataset writes) and the risk matrix's provider list. It
// is the identity wherever results leave the process — job ids,
// checkpoints, heatmaps and the latency ETag — and is computed on
// first use.
func (e *Engine) Baseline() string {
	s := e.snap
	return kept(&s.digest, func() string {
		h := sha256.New()
		fmt.Fprintln(h, resultFormat)
		_ = fiber.WriteMap(h, s.res.Map) // a hash's Write never fails
		fmt.Fprintf(h, "isps|%s\n", strings.Join(s.mx.ISPs, "|"))
		return hex.EncodeToString(h.Sum(nil))
	})
}

// betweennessRank memoizes the full betweenness cut ordering; a
// CutMostBetween=k clause resolves to its first k entries, exactly
// what resilience.TargetedByBetweenness(m, k) returns.
func (s *snapshot) betweennessRank() []fiber.ConduitID {
	return kept(&s.btw, func() []fiber.ConduitID {
		return resilience.TargetedByBetweenness(s.res.Map, s.res.Map.NumConduits())
	})
}

// Campaign returns the baseline's traceroute campaign at
// Options.Probes, run once under the span study.campaign. It is shared
// and read-only.
func (e *Engine) Campaign(ctx context.Context) (*traceroute.Campaign, error) {
	return e.campaignAt(ctx, e.opts.Probes)
}

// campaignAt returns a baseline campaign of probes probes: the shared
// campaign at Options.Probes, a fresh one otherwise.
func (e *Engine) campaignAt(ctx context.Context, probes int) (*traceroute.Campaign, error) {
	if probes != e.opts.Probes {
		return e.runCampaign(ctx, e.snap.res.Map, probes)
	}
	return e.snap.campaign.Get(ctx, func(ctx context.Context) (*traceroute.Campaign, error) {
		ctx, sp := obs.Trace(ctx, "study.campaign")
		defer sp.End()
		sp.SetWorkers(par.Workers(e.opts.Workers))
		camp, err := e.runCampaign(ctx, e.snap.res.Map, probes)
		if err != nil {
			return nil, err
		}
		sp.SetItems(int64(camp.Total))
		return camp, nil
	})
}

// LatencyStudy returns the baseline's §5.3 latency study at
// Options.LatencyMaxPairs, run once under the span study.latency. It
// is shared and read-only.
func (e *Engine) LatencyStudy(ctx context.Context) ([]mitigate.PairLatency, error) {
	return e.latencyStudyAt(ctx, e.opts.LatencyMaxPairs)
}

// latencyStudyAt returns a baseline study of maxPairs pairs over the
// baseline's latency atlas: the shared study at
// Options.LatencyMaxPairs, a fresh one otherwise.
func (e *Engine) latencyStudyAt(ctx context.Context, maxPairs int) ([]mitigate.PairLatency, error) {
	run := func(ctx context.Context) ([]mitigate.PairLatency, error) {
		at, err := e.LatencyAtlas(ctx)
		if err != nil {
			return nil, err
		}
		return e.runLatencyStudy(ctx, at, maxPairs)
	}
	if maxPairs != e.opts.LatencyMaxPairs {
		return run(ctx)
	}
	return e.snap.latStudy.Get(ctx, func(ctx context.Context) ([]mitigate.PairLatency, error) {
		ctx, sp := obs.Trace(ctx, "study.latency")
		defer sp.End()
		sp.SetWorkers(par.Workers(e.opts.Workers))
		study, err := run(ctx)
		if err != nil {
			return nil, err
		}
		sp.SetItems(int64(len(study)))
		return study, nil
	})
}

// baselineLatency keeps one baseline latency summary per pair cap.
func (e *Engine) baselineLatency(ctx context.Context, maxPairs int) (mitigate.LatencySummary, error) {
	return e.snap.latSum.Get(ctx, maxPairs, func(ctx context.Context) (mitigate.LatencySummary, error) {
		study, err := e.latencyStudyAt(ctx, maxPairs)
		if err != nil {
			return mitigate.LatencySummary{}, err
		}
		return mitigate.Summarize(study), nil
	})
}

// baselineTraffic keeps one baseline traffic summary per campaign
// size; a size a client picks never pins a campaign in memory.
func (e *Engine) baselineTraffic(ctx context.Context, probes int) (TrafficSummary, error) {
	return e.snap.trafSum.Get(ctx, probes, func(ctx context.Context) (TrafficSummary, error) {
		camp, err := e.campaignAt(ctx, probes)
		if err != nil {
			return TrafficSummary{}, err
		}
		return summarizeTraffic(camp), nil
	})
}
