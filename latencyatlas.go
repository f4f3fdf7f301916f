package intertubes

import (
	"context"
	"fmt"
	"sort"

	"intertubes/internal/latency"
	"intertubes/internal/mitigate"
	"intertubes/internal/report"
)

// latencyatlas.go surfaces the all-pairs latency atlas
// (internal/latency) on the Study: the inflation CDF the "Dissecting
// Latency" extension reports, and the greedy overlay relay planner it
// motivates. Both read the engine's snapshot-memoized atlas, so
// repeated renders and API pages share one source-batched build.

// LatencyAtlas returns (building once) the all-pairs city-to-city
// latency atlas, plus the digest of the baseline it was built from
// (scenario.Engine.Baseline) — the identity the latency API puts in
// its ETag.
func (s *Study) LatencyAtlas() (*latency.Atlas, string) {
	return s.latencyAtlas(), s.Scenarios().Engine().Baseline()
}

// latencyAtlas is LatencyAtlas without the digest, for the renders.
func (s *Study) latencyAtlas() *latency.Atlas {
	at, _ := s.Scenarios().Engine().LatencyAtlas(context.Background()) // background ctx: cannot fail
	return at
}

// RenderInflationCDF renders the atlas's latency-inflation study —
// the Figure 12 machinery pointed at every connected city pair:
// fiber-path delay, the geodesic c-latency bound, and their ratio.
func (s *Study) RenderInflationCDF() string {
	return renderInflationCDF(s.latencyAtlas().Pairs())
}

// renderInflationCDF is the pure rendering half, split out so the
// degenerate-input guard is testable without a full study: an empty
// pair set renders a note, never NaN percentiles.
func renderInflationCDF(pairs []latency.PairLatency) string {
	const title = "Latency inflation: fiber-path delay vs geodesic c-latency, all connected city pairs"
	if len(pairs) == 0 {
		return title + "\n  (no connected city pairs)\n"
	}
	infl := make([]float64, len(pairs))
	fiberMs := make([]float64, len(pairs))
	geoMs := make([]float64, len(pairs))
	for i, pl := range pairs {
		infl[i] = pl.Inflation
		fiberMs[i] = pl.FiberMs
		geoMs[i] = pl.GeoMs
	}
	sort.Float64s(infl)
	sort.Float64s(fiberMs)
	sort.Float64s(geoMs)
	series := []report.CDFSeries{
		{Name: "fiber path (ms)", Values: fiberMs},
		{Name: "c-latency (ms)", Values: geoMs},
		{Name: "inflation (x)", Values: infl},
	}
	return report.CDFTable(title, series, nil) +
		fmt.Sprintf("pairs: %d; median inflation %.2fx, p90 %.2fx\n",
			len(pairs), report.Quantile(infl, 0.50), report.Quantile(infl, 0.90))
}

// RelayPlan greedily places k overlay relay sites scored off the
// atlas rows and reports the study-pair delay improvement — the
// overlay-routing payoff of the atlas (see mitigate.PlaceRelays).
func (s *Study) RelayPlan(k int) mitigate.RelayResult {
	return mitigate.PlaceRelays(s.latencyAtlas(), s.Latency(), k)
}

// RenderRelayPlan renders a k-relay plan.
func (s *Study) RenderRelayPlan(k int) string {
	res := s.RelayPlan(k)
	out := fmt.Sprintf("Overlay relay plan (greedy, k=%d) over %d study pairs\n", k, res.Pairs)
	if len(res.Relays) == 0 {
		return out + "  no relay improves any pair\n"
	}
	for i, r := range res.Relays {
		out += fmt.Sprintf("  %d. %s: saves %.2f ms aggregate across %d pairs\n",
			i+1, s.res.Map.Node(r.Node).Key(), r.GainMs, r.PairsImproved)
	}
	out += fmt.Sprintf("mean pair delay %.2f -> %.2f ms\n", res.MeanBeforeMs, res.MeanAfterMs)
	return out
}
