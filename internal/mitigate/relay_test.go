package mitigate

import (
	"context"
	"math"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/latency"
)

// relayMap builds a 4-node map whose direct A-B conduit detours far
// north (long), while two co-located midpoints C and D offer the
// identical short two-leg path: the planner must prefer a relay, and
// break the exact C/D tie toward the lower node id.
func relayMap(t *testing.T) (*fiber.Map, fiber.NodeID, fiber.NodeID, fiber.NodeID) {
	t.Helper()
	m := fiber.NewMap()
	a := m.AddNode("A", "XX", geo.Point{Lat: 40, Lon: -100}, 1000000, -1)
	b := m.AddNode("B", "XX", geo.Point{Lat: 40, Lon: -96}, 1000000, -1)
	mid := geo.Point{Lat: 41, Lon: -98}
	c := m.AddNode("C", "XX", mid, 1000000, -1)
	d := m.AddNode("D", "XX", mid, 1000000, -1)
	mk := func(x, y fiber.NodeID, corr int, path geo.Polyline) {
		m.AddTenant(m.EnsureConduit(x, y, corr, path), "X")
	}
	gc := func(x, y fiber.NodeID) geo.Polyline {
		return geo.GreatCircle(m.Node(x).Loc, m.Node(y).Loc, 2)
	}
	// The direct conduit swings through the far north.
	mk(a, b, 0, geo.Polyline{m.Node(a).Loc, {Lat: 50, Lon: -98}, m.Node(b).Loc})
	mk(a, c, 1, gc(a, c))
	mk(c, b, 2, gc(c, b))
	mk(a, d, 3, gc(a, d))
	mk(d, b, 4, gc(d, b))
	return m, a, b, c
}

func TestPlaceRelaysGreedy(t *testing.T) {
	m, a, b, c := relayMap(t)
	at, err := latency.Build(context.Background(), m, m, latency.Options{MinPopulation: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The modelled default route is the long direct conduit; the
	// two-leg relay path is what the atlas rows price.
	avg := geo.FiberLatencyMs(m.ConduitLengthKm(0))
	study := []PairLatency{{A: a, B: b, AvgMs: avg}}
	res := PlaceRelays(at, study, 3)
	if res.Pairs != 1 {
		t.Fatalf("Pairs = %d, want 1", res.Pairs)
	}
	if len(res.Relays) != 1 {
		t.Fatalf("relays = %+v, want exactly one (the co-located twin cannot improve further)", res.Relays)
	}
	r := res.Relays[0]
	if r.Node != c {
		t.Fatalf("relay = node %d, want %d (lowest id on the C/D tie)", r.Node, c)
	}
	if r.Node == a || r.Node == b {
		t.Fatal("relay must be an intermediate site")
	}
	ra, rc := at.RowIndex(a), at.RowIndex(c)
	wantVia := geo.FiberLatencyMs(at.DistKm(ra, c) + at.DistKm(rc, b))
	if wantVia >= avg {
		t.Fatalf("fixture broken: relay path %v ms not below direct %v ms", wantVia, avg)
	}
	if got := avg - wantVia; math.Abs(r.GainMs-got) > 1e-9 {
		t.Fatalf("GainMs = %v, want %v", r.GainMs, got)
	}
	if r.PairsImproved != 1 {
		t.Fatalf("PairsImproved = %d, want 1", r.PairsImproved)
	}
	if math.Abs(res.MeanBeforeMs-avg) > 1e-9 || math.Abs(res.MeanAfterMs-wantVia) > 1e-9 {
		t.Fatalf("means = %v -> %v, want %v -> %v", res.MeanBeforeMs, res.MeanAfterMs, avg, wantVia)
	}

	// Determinism: the scan is a pure fold over immutable rows.
	again := PlaceRelays(at, study, 3)
	if len(again.Relays) != 1 || again.Relays[0] != r {
		t.Fatalf("repeat run diverged: %+v vs %+v", again.Relays, res.Relays)
	}
}

func TestPlaceRelaysSkipsUnusablePairs(t *testing.T) {
	m, a, b, _ := relayMap(t)
	at, err := latency.Build(context.Background(), m, m, latency.Options{MinPopulation: 1})
	if err != nil {
		t.Fatal(err)
	}
	study := []PairLatency{
		{A: a, B: fiber.NodeID(99), AvgMs: 10}, // not an atlas source
		{A: a, B: b, AvgMs: math.NaN()},        // non-finite default delay
		{A: a, B: b, AvgMs: math.Inf(1)},
		{A: a, B: b, AvgMs: 0}, // degenerate zero delay
	}
	res := PlaceRelays(at, study, 2)
	if res.Pairs != 0 || len(res.Relays) != 0 {
		t.Fatalf("unusable pairs scored: %+v", res)
	}
	if res.MeanBeforeMs != 0 || res.MeanAfterMs != 0 {
		t.Fatalf("degenerate means = %+v", res)
	}
}

func TestPlaceRelaysDegenerateInputs(t *testing.T) {
	m, a, b, _ := relayMap(t)
	at, err := latency.Build(context.Background(), m, m, latency.Options{MinPopulation: 1})
	if err != nil {
		t.Fatal(err)
	}
	study := []PairLatency{{A: a, B: b, AvgMs: geo.FiberLatencyMs(1000)}}
	if res := PlaceRelays(nil, study, 2); res.Pairs != 0 || len(res.Relays) != 0 {
		t.Fatalf("nil atlas scored: %+v", res)
	}
	if res := PlaceRelays(at, study, 0); res.Pairs != 0 || len(res.Relays) != 0 {
		t.Fatalf("k=0 placed relays: %+v", res)
	}
	if res := PlaceRelays(at, nil, 3); res.Pairs != 0 || len(res.Relays) != 0 {
		t.Fatalf("empty study placed relays: %+v", res)
	}
}

// TestSummarizeDegenerate pins the no-NaN guarantee: disconnected
// pairs feed NaN/Inf delays into the summary, and every headline
// number must stay finite.
func TestSummarizeDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		study []PairLatency
	}{
		{"empty", nil},
		{"all-nonfinite", []PairLatency{
			{BestMs: math.Inf(1), AvgMs: math.Inf(1), RowMs: math.Inf(1), LosMs: 1},
			{BestMs: math.NaN(), AvgMs: math.NaN(), RowMs: math.NaN(), LosMs: math.NaN()},
		}},
		{"zero-delays", []PairLatency{{}, {}}},
		{"mixed", []PairLatency{
			{BestMs: 2, AvgMs: 3, RowMs: 2, LosMs: 1},
			{BestMs: math.Inf(1), AvgMs: math.NaN(), RowMs: math.Inf(1), LosMs: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Summarize(tc.study)
			for name, v := range map[string]float64{
				"BestEqualsROW": s.BestEqualsROW,
				"LosGapP50":     s.LosGapP50,
				"LosGapP75":     s.LosGapP75,
				"AvgToBest":     s.AvgToBest,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite", name, v)
				}
			}
			if s.Pairs != len(tc.study) {
				t.Errorf("Pairs = %d, want %d", s.Pairs, len(tc.study))
			}
		})
	}
}
