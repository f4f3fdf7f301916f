package intertubes

import (
	"context"

	"intertubes/internal/geo"
	"intertubes/internal/resilience"
	"intertubes/internal/scenario"
)

// whatif.go extends the Study with the declarative what-if engine
// (internal/scenario): compose perturbations of the baseline map —
// cuts, regional disasters, provider removal, new builds — and get the
// deltas against every §4/§5 analysis, cached by content hash.

// Scenarios returns the what-if query service: a content-hash keyed
// LRU cache with singleflight deduplication over the scenario engine.
// Results are shared and must be treated as immutable.
func (s *Study) Scenarios() *scenario.Cache { return s.scen }

// WhatIf evaluates one scenario (through the cache) against the
// baseline study.
func (s *Study) WhatIf(ctx context.Context, sc scenario.Scenario) (*scenario.Result, error) {
	return s.Scenarios().Eval(ctx, sc)
}

// SweepScenarios evaluates a batch of scenarios over the study's
// worker pool; outcomes are in input order and bit-identical for any
// worker count.
func (s *Study) SweepScenarios(ctx context.Context, scs []scenario.Scenario) []scenario.Outcome {
	return scenario.Sweep(ctx, s.Scenarios().Engine(), scs, s.opts.Workers)
}

// RenderScenario evaluates a scenario and renders its delta report.
func (s *Study) RenderScenario(ctx context.Context, sc scenario.Scenario) (string, error) {
	r, err := s.WhatIf(ctx, sc)
	if err != nil {
		return "", err
	}
	return scenario.Render(r), nil
}

// Disaster evaluates a circular regional failure — every tenanted
// conduit entering the region is cut — against every mapped ISP.
func (s *Study) Disaster(lat, lon, radiusKm float64) resilience.DisasterImpact {
	return resilience.Disaster(s.res.Map, s.mx, resilience.Region{
		Center:   geo.Point{Lat: lat, Lon: lon},
		RadiusKm: radiusKm,
	})
}

// RenderDisaster renders the full what-if report for a regional
// disaster, reusing the scenario engine's regional-cut primitive (and
// its cache: repeated renders of the same region cost one evaluation).
func (s *Study) RenderDisaster(lat, lon, radiusKm float64) (string, error) {
	return s.RenderScenario(context.Background(), scenario.Scenario{
		Name:    "regional-disaster",
		Regions: []scenario.Region{{Lat: lat, Lon: lon, RadiusKm: radiusKm}},
	})
}
