package mitigate

import (
	"context"
	"math"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

var (
	cachedRes *mapbuilder.Result
	cachedMx  *risk.Matrix
)

func build(t *testing.T) (*mapbuilder.Result, *risk.Matrix) {
	t.Helper()
	if cachedRes == nil {
		cachedRes = mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
		cachedMx = risk.Build(cachedRes.Map, nil)
	}
	return cachedRes, cachedMx
}

// litAtlas builds the latency atlas of m, which LatencyStudy reads.
func litAtlas(t *testing.T, m *fiber.Map, opts latency.Options) *latency.Atlas {
	t.Helper()
	at, err := latency.Build(context.Background(), m, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// smallMap builds a hand-checked topology:
//
//	A --c0(3 tenants: X,Y,Z)-- B
//	A --c1(X)-- C --c2(X)-- B     (a 2-hop lightly shared detour)
func smallMap(t *testing.T) (*fiber.Map, *risk.Matrix, fiber.ConduitID) {
	t.Helper()
	m := fiber.NewMap()
	a := m.AddNode("A", "XX", geo.Point{Lat: 40, Lon: -100}, 1000000, -1)
	b := m.AddNode("B", "XX", geo.Point{Lat: 40, Lon: -98}, 1000000, -1)
	c := m.AddNode("C", "XX", geo.Point{Lat: 41, Lon: -99}, 1000000, -1)
	mk := func(x, y fiber.NodeID, corr int) fiber.ConduitID {
		return m.EnsureConduit(x, y, corr, geo.GreatCircle(m.Node(x).Loc, m.Node(y).Loc, 2))
	}
	c0 := mk(a, b, 0)
	c1 := mk(a, c, 1)
	c2 := mk(c, b, 2)
	for _, isp := range []string{"X", "Y", "Z"} {
		m.AddTenant(c0, isp)
	}
	m.AddTenant(c1, "X")
	m.AddTenant(c2, "X")
	return m, risk.Build(m, nil), c0
}

func TestRobustnessSuggestionSmall(t *testing.T) {
	m, mx, target := smallMap(t)
	out := RobustnessSuggestion(m, mx, []fiber.ConduitID{target}, 3)
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, r := range out {
		if r.Evaluated != 1 {
			t.Errorf("%s evaluated %d, want 1", r.ISP, r.Evaluated)
		}
		// The detour has 2 hops: PI = 1; its worst sharing is 1 vs the
		// original 3: SRR = 2.
		if r.PI.Avg != 1 {
			t.Errorf("%s PI = %+v", r.ISP, r.PI)
		}
		if r.SRR.Avg != 2 {
			t.Errorf("%s SRR = %+v", r.ISP, r.SRR)
		}
	}
	// Y and Z do not occupy the detour conduits, so X is their
	// suggested peer.
	for _, r := range out {
		if r.ISP == "Y" || r.ISP == "Z" {
			if len(r.SuggestedPeers) == 0 || r.SuggestedPeers[0] != "X" {
				t.Errorf("%s peers = %v, want X first", r.ISP, r.SuggestedPeers)
			}
		}
		if r.ISP == "X" && len(r.SuggestedPeers) != 0 {
			t.Errorf("X owns the whole detour; peers = %v", r.SuggestedPeers)
		}
	}
}

func TestRobustnessSuggestionFullMap(t *testing.T) {
	res, mx := build(t)
	targets := mx.TopShared(12)
	if len(targets) != 12 {
		t.Fatalf("targets = %d", len(targets))
	}
	out := RobustnessSuggestion(res.Map, mx, targets, 3)
	if len(out) != 20 {
		t.Fatalf("rows = %d", len(out))
	}
	level3Suggested := 0
	for _, r := range out {
		if r.Evaluated == 0 {
			continue
		}
		// Paper Figure 10: one-to-two extra conduits buy most of the
		// shared-risk reduction.
		if r.PI.Avg < 0.5 || r.PI.Avg > 8 {
			t.Errorf("%s PI avg = %v", r.ISP, r.PI.Avg)
		}
		if r.SRR.Avg <= 0 {
			t.Errorf("%s SRR avg = %v; re-routing should reduce risk", r.ISP, r.SRR.Avg)
		}
		if r.SRR.Max > float64(len(mx.ISPs)) {
			t.Errorf("%s SRR max = %v exceeds ISP count", r.ISP, r.SRR.Max)
		}
		for _, p := range r.SuggestedPeers {
			if p == r.ISP {
				t.Errorf("%s suggested itself", r.ISP)
			}
			if p == "Level 3" {
				level3Suggested++
			}
		}
	}
	// Paper Table 5: Level 3 is predominantly the best peer to add.
	if level3Suggested < 10 {
		t.Errorf("Level 3 suggested only %d times; expected to dominate Table 5", level3Suggested)
	}
}

func TestStatAccumulator(t *testing.T) {
	s := newStat()
	for _, v := range []float64{2, 4, 6} {
		s.add(v)
	}
	s.finish()
	if s.Min != 2 || s.Max != 6 || math.Abs(s.Avg-4) > 1e-9 || s.N != 3 {
		t.Errorf("stat = %+v", s)
	}
	empty := newStat()
	empty.finish()
	if empty.Min != 0 || empty.Max != 0 || empty.Avg != 0 {
		t.Errorf("empty stat = %+v", empty)
	}
}

func TestAddConduitsSmall(t *testing.T) {
	m, mx, _ := smallMap(t)
	res, _ := AddConduits(context.Background(), m, mx, AddOptions{K: 2, MinKm: 50, MaxKm: 500})
	// The only candidate pairs already have conduits (A-B, A-C, C-B),
	// so nothing useful can be added on this tiny map.
	if len(res.Additions) != 0 {
		t.Errorf("additions = %v", res.Additions)
	}
}

func TestAddConduitsFullMap(t *testing.T) {
	res, mx := build(t)
	out, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 6})
	if len(out.Additions) == 0 {
		t.Fatal("no additions chosen")
	}
	if len(out.Additions) > 6 {
		t.Fatalf("too many additions: %d", len(out.Additions))
	}
	for _, ad := range out.Additions {
		if ad.LengthKm < 100 || ad.LengthKm > 900 {
			t.Errorf("addition length %v outside window", ad.LengthKm)
		}
		if ad.Benefit <= 0 {
			t.Errorf("addition with non-positive benefit %v", ad.Benefit)
		}
		if len(res.Map.ConduitsBetween(ad.A, ad.B)) > 0 {
			t.Error("addition duplicates an existing conduit")
		}
	}
	// Improvement series: present for every ISP, within [0,1],
	// non-decreasing in k.
	if len(out.Improvement) != 20 {
		t.Fatalf("improvement for %d ISPs", len(out.Improvement))
	}
	for isp, series := range out.Improvement {
		if len(series) != len(out.Additions) {
			t.Fatalf("%s series length %d != %d", isp, len(series), len(out.Additions))
		}
		for i, v := range series {
			if v < 0 || v > 1 {
				t.Errorf("%s improvement[%d] = %v", isp, i, v)
			}
			if i > 0 && v < series[i-1]-1e-9 {
				t.Errorf("%s series decreases at k=%d", isp, i+1)
			}
		}
	}
	// Figure 11's ordering: small international backbones gain more
	// than the large incumbents with already-rich connectivity.
	final := func(isp string) float64 {
		s := out.Improvement[isp]
		return s[len(s)-1]
	}
	smallGain := (final("TeliaSonera") + final("Tata") + final("Deutsche Telekom")) / 3
	bigGain := (final("Level 3") + final("EarthLink")) / 2
	if smallGain <= bigGain {
		t.Errorf("small ISPs gain %.3f <= big ISPs %.3f; Figure 11 ordering violated", smallGain, bigGain)
	}
}

func TestLatencyStudySmall(t *testing.T) {
	res, _ := build(t)
	m, _, _ := smallMap(t)
	// The small map's nodes have no atlas cities, so ROW falls back to
	// the best existing path.
	study, _ := LatencyStudy(context.Background(), litAtlas(t, m, latency.Options{MinPopulation: 1}), res.Atlas, LatencyOptions{})
	if len(study) == 0 {
		t.Fatal("no pairs studied")
	}
	for _, pl := range study {
		if pl.LosMs <= 0 || pl.BestMs <= 0 {
			t.Errorf("degenerate pair %+v", pl)
		}
		if pl.BestMs < pl.LosMs {
			t.Errorf("best %.3f beats line of sight %.3f", pl.BestMs, pl.LosMs)
		}
		if pl.AvgMs < pl.BestMs {
			t.Errorf("avg %.3f below best %.3f", pl.AvgMs, pl.BestMs)
		}
	}
}

func TestLatencyStudyFullMap(t *testing.T) {
	res, _ := build(t)
	study, _ := LatencyStudy(context.Background(), litAtlas(t, res.Map, latency.Options{}), res.Atlas, LatencyOptions{MaxPairs: 800})
	if len(study) < 400 {
		t.Fatalf("pairs = %d", len(study))
	}
	for _, pl := range study {
		if pl.BestMs < pl.LosMs-1e-9 {
			t.Fatalf("best %.3f under LOS %.3f for %d-%d", pl.BestMs, pl.LosMs, pl.A, pl.B)
		}
		if pl.RowMs < pl.LosMs-1e-9 {
			t.Fatalf("ROW %.3f under LOS %.3f", pl.RowMs, pl.LosMs)
		}
		if pl.AvgMs < pl.BestMs-1e-9 {
			t.Fatalf("avg %.3f under best %.3f", pl.AvgMs, pl.BestMs)
		}
	}
	s := Summarize(study)
	// Paper: ~65% of best paths are also the best ROW paths; ours
	// lands nearby.
	if s.BestEqualsROW < 0.40 || s.BestEqualsROW > 0.90 {
		t.Errorf("BestEqualsROW = %.3f, want ~0.6", s.BestEqualsROW)
	}
	// The LOS gap grows through the distribution.
	if s.LosGapP75 < s.LosGapP50 {
		t.Error("LOS gap quantiles inverted")
	}
	if s.AvgToBest < 1 {
		t.Errorf("AvgToBest = %v", s.AvgToBest)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Pairs != 0 || s.BestEqualsROW != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestCDFSorted(t *testing.T) {
	study := []PairLatency{{BestMs: 3}, {BestMs: 1}, {BestMs: 2}}
	cdf := CDF(study, func(p PairLatency) float64 { return p.BestMs })
	if cdf[0] != 1 || cdf[1] != 2 || cdf[2] != 3 {
		t.Errorf("cdf = %v", cdf)
	}
}

// TestCDFDropsNonFinite: a disconnected pair reports +Inf (or NaN)
// latency; those values must be filtered, not fed to sort.Float64s —
// NaN has no total order, so one bad pair used to leave the CDF
// unsorted and the Figure 12 rendering scrambled.
func TestCDFDropsNonFinite(t *testing.T) {
	study := []PairLatency{
		{BestMs: 3},
		{BestMs: math.Inf(1)}, // disconnected pair
		{BestMs: 1},
		{BestMs: math.NaN()},
		{BestMs: 2},
		{BestMs: math.Inf(-1)},
	}
	cdf := CDF(study, func(p PairLatency) float64 { return p.BestMs })
	if len(cdf) != 3 {
		t.Fatalf("cdf kept %d values, want 3 finite ones: %v", len(cdf), cdf)
	}
	for i, want := range []float64{1, 2, 3} {
		if cdf[i] != want {
			t.Fatalf("cdf = %v, want [1 2 3]", cdf)
		}
	}
	if got := CDF(nil, func(p PairLatency) float64 { return p.BestMs }); len(got) != 0 {
		t.Errorf("empty study cdf = %v", got)
	}
}

func TestTopKeys(t *testing.T) {
	score := map[string]int{"b": 2, "a": 2, "c": 5}
	got := topKeys(score, 2)
	if len(got) != 2 || got[0] != "c" || got[1] != "a" {
		t.Errorf("topKeys = %v", got)
	}
	if got := topKeys(nil, 3); len(got) != 0 {
		t.Errorf("empty topKeys = %v", got)
	}
}

// TestAddConduitsCapacityObjective exercises the capacity-aware hook:
// a zero objective is byte-for-byte the pure shared-risk sweep, and a
// targeted bonus redirects the first pick.
func TestAddConduitsCapacityObjective(t *testing.T) {
	res, mx := build(t)
	base, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 2})
	if len(base.Additions) == 0 {
		t.Fatal("baseline sweep chose nothing")
	}

	zero, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 2,
		CapacityObjective: func(a, b fiber.NodeID, km float64) float64 { return 0 },
	})
	if len(zero.Additions) != len(base.Additions) {
		t.Fatalf("zero objective changed the addition count: %d vs %d",
			len(zero.Additions), len(base.Additions))
	}
	for i := range base.Additions {
		if zero.Additions[i] != base.Additions[i] {
			t.Errorf("zero objective changed addition %d: %+v vs %+v",
				i, zero.Additions[i], base.Additions[i])
		}
	}

	// Reward every candidate except the baseline winner; the first
	// pick must move and carry the bonus in its benefit.
	first := base.Additions[0]
	biased, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 1,
		CapacityObjective: func(a, b fiber.NodeID, km float64) float64 {
			if a == first.A && b == first.B {
				return 0
			}
			return 1e6
		},
	})
	if len(biased.Additions) != 1 {
		t.Fatalf("biased sweep chose %d additions, want 1", len(biased.Additions))
	}
	got := biased.Additions[0]
	if got.A == first.A && got.B == first.B {
		t.Errorf("capacity objective did not redirect the pick from %v-%v", first.A, first.B)
	}
	if got.Benefit < 1e5 {
		t.Errorf("biased benefit %v does not reflect the objective term", got.Benefit)
	}

	// A capacity-proportional objective (the intended use) still
	// yields valid additions within the length window.
	capObj, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 2,
		CapacityObjective: func(a, b fiber.NodeID, km float64) float64 {
			return fiber.CapacityGbps(a, b, km, 1) / 1000
		},
	})
	for _, ad := range capObj.Additions {
		if ad.LengthKm < 100 || ad.LengthKm > 900 {
			t.Errorf("capacity-biased addition length %v outside window", ad.LengthKm)
		}
	}
}

func TestAddConduitsExactMode(t *testing.T) {
	res, mx := build(t)
	exact, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 3, Exact: true})
	approx, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 3})
	if len(exact.Additions) == 0 {
		t.Fatal("exact mode chose nothing")
	}
	// Both modes must produce valid additions and improvements; the
	// exact mode's realized improvement should be at least comparable.
	mean := func(r *AddResult) float64 {
		var sum float64
		n := 0
		for _, series := range r.Improvement {
			sum += series[len(series)-1]
			n++
		}
		return sum / float64(n)
	}
	me, ma := mean(exact), mean(approx)
	if me <= 0 || ma <= 0 {
		t.Fatalf("improvements: exact %v approx %v", me, ma)
	}
	// The approximation should be within a factor of the exact
	// optimizer (this is the DESIGN.md ablation, asserted).
	if ma < me*0.5 {
		t.Errorf("approximation (%.4f) far below exact (%.4f)", ma, me)
	}
}

func TestLatencyImprovements(t *testing.T) {
	res, _ := build(t)
	study, _ := LatencyStudy(context.Background(), litAtlas(t, res.Map, latency.Options{}), res.Atlas, LatencyOptions{MaxPairs: 800})
	imps, _ := LatencyImprovements(context.Background(), res.Map, res.Atlas, study, 10, LatencyOptions{})
	if len(imps) == 0 {
		t.Fatal("no latency improvements proposed; ~40% of pairs are off the ROW bound")
	}
	for _, imp := range imps {
		if imp.SavedMs <= 0 {
			t.Errorf("non-positive saving %+v", imp)
		}
		if imp.RowMs > imp.BestMs {
			t.Errorf("ROW build slower than existing: %+v", imp)
		}
		if imp.NewFiberKm < 0 {
			t.Errorf("negative new fiber: %+v", imp)
		}
	}
	// Ranked by value density: zero-new-fiber reuse first, then by
	// saved-per-km.
	for i := 1; i < len(imps); i++ {
		zi, zj := imps[i-1].NewFiberKm == 0, imps[i].NewFiberKm == 0
		if !zi && zj {
			t.Error("zero-cost builds must sort first")
		}
	}
}
