package latency

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/par"
	"intertubes/internal/records"
)

// perpair_test.go holds the per-pair reference for the batched atlas
// and the benchmark that compares the two.

// pairsPerPair computes Build(...).Pairs() with one early-stopped
// Dijkstra per pair — the pre-atlas asymptotics. TestPairsMatchPerPair
// pins byte-identical output against the batched build.
func pairsPerPair(ctx context.Context, m *fiber.Map, opts Options) ([]PairLatency, error) {
	opts = opts.withDefaults()
	g := fiber.Graph(m)
	wf := fiber.LitWeight(m)
	srcs := sourceNodes(m, opts.MinPopulation)
	type pair struct{ a, b int32 }
	var pairs []pair
	for i := range srcs {
		for j := i + 1; j < len(srcs); j++ {
			pairs = append(pairs, pair{a: srcs[i], b: srcs[j]})
		}
	}
	type pairResult struct {
		pl PairLatency
		ok bool
	}
	computed, err := par.MapWith(ctx, len(pairs), opts.Workers, graph.NewWorkspace, func(i int, ws *graph.Workspace) pairResult {
		p := pairs[i]
		d, ok := g.ShortestDistance(ws, int(p.a), int(p.b), wf)
		if !ok {
			return pairResult{}
		}
		geoKm := m.Node(fiber.NodeID(p.a)).Loc.DistanceKm(m.Node(fiber.NodeID(p.b)).Loc)
		return pairResult{pl: pairFor(fiber.NodeID(p.a), fiber.NodeID(p.b), d, geoKm), ok: true}
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

var (
	benchOnce sync.Once
	benchMap  *fiber.Map
)

// benchBaseline builds the map intertubes.NewStudy builds at its
// default seed and records settings.
func benchBaseline() *fiber.Map {
	benchOnce.Do(func() {
		benchMap = mapbuilder.Build(context.Background(), mapbuilder.Options{
			Seed: 42,
			Records: records.Options{
				Coverage:        0.9,
				TenantRecall:    0.9,
				FalseTenantRate: 0.04,
				Seed:            43,
			},
		}).Map
	})
	return benchMap
}

// BenchmarkLatencyAtlas pins the atlas speedup claim: the all-pairs
// city latency table computed per-pair (one early-stopped Dijkstra
// per pair — the asymptotics the §5.3 study grew up on) against the
// source-batched build (one full Dijkstra per city). Both halves
// produce byte-identical pair tables, verified before timing. The
// "row" sub-benchmark times one warm per-source row fill; its
// allocs/op must read 0 — the steady state of the batched kernel.
func BenchmarkLatencyAtlas(b *testing.B) {
	m := benchBaseline()
	ctx := context.Background()
	ref, err := pairsPerPair(ctx, m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	warm, err := Build(ctx, m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Pairs(), ref) {
		b.Fatal("batched atlas diverges from the per-pair reference")
	}

	b.Run("per-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pairsPerPair(ctx, m, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			at, err := Build(ctx, m, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(at.Pairs()) != len(ref) {
				b.Fatal("pair count changed")
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		g := fiber.Graph(m)
		wf := fiber.LitWeight(m)
		ws := graph.NewWorkspace()
		row := make([]float64, g.NumVertices())
		src := int(warm.Source(0))
		g.ShortestDistances(ws, src, wf, row)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ShortestDistances(ws, src, wf, row)
		}
	})
}
