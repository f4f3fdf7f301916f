package scenario

import (
	"context"
	"sync"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/par"
	"intertubes/internal/records"
	"intertubes/internal/risk"
)

// bench_test.go pairs the engine with the clone reference
// (clone_ref_test.go) on the same workloads. The two produce
// byte-identical Result JSON — the differential suite pins that — so
// each pair measures pure evaluation cost: the overlay/clone ns/op
// ratio is what the copy-on-write design buys. Run:
//
//	go test -run '^$' -bench 'Scenario' -benchmem ./internal/scenario

var (
	benchOnce sync.Once
	benchRes  *mapbuilder.Result
	benchMx   *risk.Matrix
)

// benchBaseline builds the baseline intertubes.NewStudy builds at its
// default seed and records settings, and its risk matrix.
func benchBaseline() (*mapbuilder.Result, *risk.Matrix) {
	benchOnce.Do(func() {
		benchRes = mapbuilder.Build(context.Background(), mapbuilder.Options{
			Seed: 42,
			Records: records.Options{
				Coverage:        0.9,
				TenantRecall:    0.9,
				FalseTenantRate: 0.04,
				Seed:            43,
			},
		})
		benchMx = risk.Build(benchRes.Map, nil)
	})
	return benchRes, benchMx
}

// benchMode is one evaluator under benchmark.
type benchMode struct {
	name  string
	eval  func(ctx context.Context, eng *Engine, sc Scenario) (*Result, error)
	sweep func(ctx context.Context, eng *Engine, scs []Scenario, workers int) []Outcome
}

// benchModes lists the clone reference and the engine, in that order.
var benchModes = []benchMode{
	{
		name: "clone",
		eval: referenceEvaluate,
		// Sweep takes an *Engine, so the reference runs its batch over
		// the same par pool directly.
		sweep: func(ctx context.Context, eng *Engine, scs []Scenario, workers int) []Outcome {
			out, _ := par.Map(ctx, len(scs), workers, func(i int) Outcome {
				return referenceOutcome(ctx, eng, scs[i])
			})
			return out
		},
	},
	{
		name: "overlay",
		eval: func(ctx context.Context, eng *Engine, sc Scenario) (*Result, error) {
			return eng.Evaluate(ctx, sc)
		},
		sweep: Sweep,
	},
}

// scenarioSweepBatch is a representative disaster grid: a sweep of
// localized circular disaster footprints centered on map nodes
// spread across the atlas, plus the global what-ifs a campaign mixes
// in — escalating shared-conduit cuts, a provider removal, and a new
// build.
func scenarioSweepBatch(res *mapbuilder.Result, mx *risk.Matrix) []Scenario {
	isps := mx.ISPs
	m := res.Map
	batch := make([]Scenario, 0, 16)
	n := m.NumNodes()
	for i := 0; i < 10; i++ {
		loc := m.Node(fiber.NodeID(i * n / 10)).Loc
		batch = append(batch, Scenario{
			Regions: []Region{{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: 120}},
		})
	}
	batch = append(batch,
		Scenario{CutMostShared: 2},
		Scenario{CutMostShared: 5},
		Scenario{CutMostBetween: 3},
		Scenario{RemoveISPs: isps[:1]},
		Scenario{Additions: []Addition{{
			A: m.Node(0).Key(), B: m.Node(fiber.NodeID(n - 1)).Key(),
		}}},
		Scenario{},
	)
	return batch
}

// BenchmarkScenarioEvaluate times one what-if evaluation per
// iteration on a warmed engine, per evaluator.
func BenchmarkScenarioEvaluate(b *testing.B) {
	res, mx := benchBaseline()
	sc := Scenario{CutMostShared: 5}
	ctx := context.Background()
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			eng := New(res, mx, Options{Seed: 42})
			if _, err := mode.eval(ctx, eng, sc); err != nil { // warm: baseline memo, scratch pools
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mode.eval(ctx, eng, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioEvaluateCapacity times a circular-disaster
// evaluation — the workload whose cost the capacity stage (gravity
// demands + max-flow per pair) rides on — per evaluator, on a warmed
// engine. The lost-gbps metric is the severity the heatmap plots; it
// is byte-identical across modes by the differential suite.
func BenchmarkScenarioEvaluateCapacity(b *testing.B) {
	res, mx := benchBaseline()
	loc := res.Map.Node(0).Loc
	sc := Scenario{
		Regions: []Region{{Lat: loc.Lat, Lon: loc.Lon, RadiusKm: 150}},
	}
	ctx := context.Background()
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			eng := New(res, mx, Options{Seed: 42})
			r, err := mode.eval(ctx, eng, sc) // warm: baseline + capacity memo
			if err != nil {
				b.Fatal(err)
			}
			if r.LostTraffic == nil {
				b.Fatal("no lost-traffic delta")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, err = mode.eval(ctx, eng, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.LostTraffic.LostGbps, "lost-gbps")
		})
	}
}

// BenchmarkScenarioSweep times the full disaster-grid batch at all
// CPUs, per evaluator; scenarios/op normalizes the grid size.
func BenchmarkScenarioSweep(b *testing.B) {
	res, mx := benchBaseline()
	batch := scenarioSweepBatch(res, mx)
	ctx := context.Background()
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			eng := New(res, mx, Options{Seed: 42})
			warm := mode.sweep(ctx, eng, batch[:1], 1)
			if warm[0].Err != "" {
				b.Fatal(warm[0].Err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := mode.sweep(ctx, eng, batch, 0)
				for j := range out {
					if out[j].Err != "" {
						b.Fatal(out[j].Err)
					}
				}
			}
			b.ReportMetric(float64(len(batch)), "scenarios/op")
		})
	}
}
