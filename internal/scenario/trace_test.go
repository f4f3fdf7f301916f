package scenario

import (
	"context"
	"strconv"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/obs"
)

// trace_test.go pins the flight-recorder integration: a recorded
// evaluation's span tree carries the evaluator's attribution
// (per-stage reused/recomputed outcome, touched-ISP counts, min-cut
// path split, scenario hash, baseline digest) and the cache stamps
// its outcome on the caller's span.

func freshTraces(t *testing.T) *obs.TraceStore {
	t.Helper()
	st := obs.NewTraceStore(8, 8)
	old := obs.DefaultTraces
	obs.DefaultTraces = st
	t.Cleanup(func() { obs.DefaultTraces = old })
	return st
}

func attrMap(s obs.SpanRecord) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

func TestRecordedEvaluationAttribution(t *testing.T) {
	st := freshTraces(t)
	eng := newEngine(t, 0)
	ctx, root := obs.StartTrace(context.Background(), "test.eval")
	if _, err := eng.Evaluate(ctx, Scenario{CutMostShared: 5}); err != nil {
		t.Fatal(err)
	}
	root.End()

	tr, ok := st.Get(root.TraceID())
	if !ok {
		t.Fatal("evaluation trace not retained")
	}
	byName := map[string]obs.SpanRecord{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}

	eval, ok := byName["scenario.evaluate"]
	if !ok {
		t.Fatalf("no scenario.evaluate span; got %v", names(tr.Spans))
	}
	ea := attrMap(eval)
	if ea["scenario_hash"] == "" {
		t.Error("scenario_hash attr missing")
	}
	if ea["baseline"] != eng.Baseline() {
		t.Errorf("baseline attr = %q, want the engine's digest %q", ea["baseline"], eng.Baseline())
	}

	for _, stageName := range []string{
		"scenario.stage.apply", "scenario.stage.matrix",
		"scenario.stage.disconnection", "scenario.stage.partition",
	} {
		s, ok := byName[stageName]
		if !ok {
			t.Errorf("missing stage span %s", stageName)
			continue
		}
		if s.ParentID != eval.SpanID {
			t.Errorf("%s parent = %d, want evaluate %d", stageName, s.ParentID, eval.SpanID)
		}
	}

	// A most-shared cut touches providers: both reuse stages must
	// report a recomputed outcome with touched counts and the partition
	// stage must attribute its min-cut path split.
	for _, stageName := range []string{"scenario.stage.disconnection", "scenario.stage.partition"} {
		a := attrMap(byName[stageName])
		if a["outcome"] != "recomputed" {
			t.Errorf("%s outcome = %q, want recomputed", stageName, a["outcome"])
		}
		if a["touched"] == "" || a["touched"] == "0" {
			t.Errorf("%s touched = %q, want > 0", stageName, a["touched"])
		}
		if a["reused"] == "" {
			t.Errorf("%s reused attr missing", stageName)
		}
	}
	pa := attrMap(byName["scenario.stage.partition"])
	if pa["mincut_fastpath"] == "" || pa["mincut_stoerwagner"] == "" {
		t.Errorf("partition stage missing min-cut split: %v", pa)
	}

	// Every demand the capacity stage re-flows runs at least one Dinic
	// level search.
	ca := attrMap(byName["scenario.stage.capacity"])
	touched, err1 := strconv.Atoi(ca["touched"])
	phases, err2 := strconv.Atoi(ca["maxflow_phases"])
	if err1 != nil || err2 != nil || touched == 0 || phases < touched {
		t.Errorf("capacity stage attrs %v: want touched > 0 and maxflow_phases >= touched", ca)
	}
}

func TestRecordedEvaluationReusedOutcome(t *testing.T) {
	st := freshTraces(t)
	eng := newEngine(t, 0)
	// Removing no ISPs and cutting nothing touches no provider and
	// changes no capacity: every stage serves baseline rows and reports
	// a reused outcome.
	ctx, root := obs.StartTrace(context.Background(), "test.noop")
	if _, err := eng.Evaluate(ctx, Scenario{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	tr, _ := st.Get(root.TraceID())
	for _, s := range tr.Spans {
		switch s.Name {
		case "scenario.stage.disconnection", "scenario.stage.partition", "scenario.stage.capacity":
		default:
			continue
		}
		a := attrMap(s)
		if a["outcome"] != "reused" {
			t.Errorf("%s outcome = %q, want reused for a no-op scenario", s.Name, a["outcome"])
		}
		if a["touched"] != "0" {
			t.Errorf("%s touched = %q, want 0", s.Name, a["touched"])
		}
		if s.Name == "scenario.stage.capacity" && a["maxflow_phases"] != "0" {
			t.Errorf("%s maxflow_phases = %q, want 0", s.Name, a["maxflow_phases"])
		}
	}
}

// stageAttrsOf evaluates sc under a recorded trace and returns each
// stage span's attributes by span name.
func stageAttrsOf(t *testing.T, st *obs.TraceStore, eng *Engine, sc Scenario) map[string]map[string]string {
	t.Helper()
	ctx, root := obs.StartTrace(context.Background(), "test.delta")
	if _, err := eng.Evaluate(ctx, sc); err != nil {
		t.Fatal(err)
	}
	root.End()
	tr, ok := st.Get(root.TraceID())
	if !ok {
		t.Fatal("evaluation trace not retained")
	}
	out := make(map[string]map[string]string)
	for _, s := range tr.Spans {
		out[s.Name] = attrMap(s)
	}
	return out
}

// TestRecordedDeltaSizes: the matrix, capacity and apply stages say
// how large the scenario's delta was — the conduits the overlay
// touched, the capacities recomputed, and the conduits past the region
// prefilter.
func TestRecordedDeltaSizes(t *testing.T) {
	st := freshTraces(t)
	eng := newEngine(t, 0)
	m := eng.snap.res.Map
	isp := eng.Matrix().ISPs[0]
	var held, notHeld []fiber.ConduitID
	for cid := fiber.ConduitID(0); int(cid) < m.NumConduits(); cid++ {
		switch {
		case len(m.Tenants(cid)) == 0:
		case m.HasTenant(cid, isp):
			held = append(held, cid)
		default:
			notHeld = append(notHeld, cid)
		}
	}
	sizes := func(sc Scenario) (touched, capacities, candidates string) {
		a := stageAttrsOf(t, st, eng, sc)
		return a["scenario.stage.matrix"]["conduits_touched"],
			a["scenario.stage.capacity"]["capacities_recomputed"],
			a["scenario.stage.apply"]["region_candidates"]
	}

	if tc, cc, rc := sizes(Scenario{CutConduits: notHeld[:3]}); tc != "3" || cc != "3" || rc != "0" {
		t.Errorf("3-conduit cut: conduits_touched %s, capacities_recomputed %s, region_candidates %s; want 3, 3, 0", tc, cc, rc)
	}
	want := strconv.Itoa(len(held))
	if tc, cc, _ := sizes(Scenario{RemoveISPs: []string{isp}}); tc != want || cc != want {
		t.Errorf("removing %s: conduits_touched %s, capacities_recomputed %s; want its %s conduits", isp, tc, cc, want)
	}
	// A cut of one of its conduits adds nothing; a cut elsewhere adds one.
	want = strconv.Itoa(len(held) + 1)
	if tc, cc, _ := sizes(Scenario{RemoveISPs: []string{isp}, CutConduits: []fiber.ConduitID{held[0], notHeld[0]}}); tc != want || cc != want {
		t.Errorf("removing %s with two cuts: conduits_touched %s, capacities_recomputed %s; want %s", isp, tc, cc, want)
	}

	sc := Scenario{Regions: []Region{{Lat: 29.95, Lon: -90.07, RadiusKm: 200}}}
	res, err := eng.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rc := sizes(sc)
	if n, err := strconv.Atoi(rc); err != nil || n < res.ConduitsCut || res.ConduitsCut == 0 {
		t.Errorf("region cutting %d conduits: region_candidates %q, want at least that many", res.ConduitsCut, rc)
	}
}

func TestCacheOutcomeAttrs(t *testing.T) {
	st := freshTraces(t)
	eng := newEngine(t, 0)
	c := NewCache(eng, 8)
	sc := Scenario{CutMostShared: 3}

	evalOnce := func(name string) map[string]string {
		ctx, root := obs.StartTrace(context.Background(), name)
		if _, err := c.Eval(ctx, sc); err != nil {
			t.Fatal(err)
		}
		root.End()
		tr, ok := st.Get(root.TraceID())
		if !ok {
			t.Fatalf("%s: trace not retained", name)
		}
		for _, s := range tr.Spans {
			if s.Name == name {
				return attrMap(s)
			}
		}
		t.Fatalf("%s: root span not found", name)
		return nil
	}

	if a := evalOnce("req.miss"); a["cache"] != "miss" {
		t.Errorf("first eval cache attr = %q, want miss", a["cache"])
	}
	if a := evalOnce("req.hit"); a["cache"] != "hit" {
		t.Errorf("second eval cache attr = %q, want hit", a["cache"])
	}
}

func TestSweepProgressGauge(t *testing.T) {
	eng := newEngine(t, 2)
	scs := sweepGrid()
	out := Sweep(context.Background(), eng, scs, 2)
	if len(out) != len(scs) {
		t.Fatalf("outcomes = %d, want %d", len(out), len(scs))
	}
	if v := sweepProgress.Value(); v != 1 {
		t.Errorf("scenario_sweep_progress = %g after a finished sweep, want 1", v)
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
