package scenario

import (
	"context"
	"testing"

	"intertubes/internal/fiber"
)

// alloc_test.go guards the evaluator's allocation story: applying a
// weight mask to a warmed scratch row allocates nothing, and an
// evaluation never pays for a per-scenario map clone — its allocation
// count sits far below a single clone's. The guards skip
// under -short (perf gates, not correctness) and under the race
// detector (instrumentation allocates), matching the graph package's
// convention.

func skipIfAllocsUnmeasurable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector")
	}
}

func TestMaskWeightsZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	base := eng.snap.baseline()

	dst := make([]float64, base.g.NumEdges())
	baseRow := base.ispW[0]
	gains := []fiber.ConduitID{3, 7}
	cuts := mx.TopShared(5)
	if avg := testing.AllocsPerRun(100, func() {
		maskWeights(dst, baseRow, gains, cuts)
	}); avg != 0 {
		t.Fatalf("maskWeights allocates %.1f per run, want 0", avg)
	}
}

// TestOverlayEvaluateNoMapClone pins the overlay's central claim: an
// evaluation never deep-copies the map. One clone of the full atlas
// costs about a thousand allocations (conduit slices, tenant lists,
// indexes); a warmed evaluation of a five-conduit cut must come in
// under half of one.
func TestOverlayEvaluateNoMapClone(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	ctx := context.Background()
	sc := Scenario{CutMostShared: 5}

	// Warm the engine (baseline memos, pooled scratch).
	if _, err := eng.Evaluate(ctx, sc); err != nil {
		t.Fatal(err)
	}

	ovAllocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Evaluate(ctx, sc); err != nil {
			t.Fatal(err)
		}
	})
	cloneAllocs := testing.AllocsPerRun(10, func() {
		_ = res.Map.Clone()
	})

	t.Logf("Evaluate: %.0f allocs/run; one map clone: %.0f", ovAllocs, cloneAllocs)
	if ovAllocs*2 > cloneAllocs {
		t.Fatalf("Evaluate allocates %.0f per run vs %.0f for one map clone — the evaluator is paying for map copies",
			ovAllocs, cloneAllocs)
	}
}

// TestCapacityReuseDecisionZeroAllocs pins that the capacity stage's
// reuse decision costs no allocation per evaluation: a warmed scratch
// lists the capacity changes of a scenario that both drops and grows
// capacity, and decides every demand, allocation-free.
func TestCapacityReuseDecisionZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	res, mx := build(t)
	eng := New(res, mx, Options{Seed: 42})
	m := res.Map
	sc, err := Resolve(Scenario{
		CutMostShared: 5,
		Additions:     []Addition{{A: m.Node(0).Key(), B: m.Node(fiber.NodeID(m.NumNodes() - 1)).Key()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ov, _, err := eng.buildOverlay(sc, eng.keptISPs(sc))
	if err != nil {
		t.Fatal(err)
	}
	final, nb := ov.Final(), ov.NumBaseConduits()
	cb, g := eng.snap.capacity(), eng.snap.baseline().g
	scr := getScratch(g.NumEdges())
	defer putScratch(scr)

	reused := 0
	decide := func() {
		scr.capacityNetwork(cb, g, ov, final)
		reused = 0
		for i := range cb.demands {
			if cb.reusable(i, scr.capW[:nb], &scr.capD) {
				reused++
			}
		}
	}
	decide() // warm: scratch growth
	if len(scr.capD.dropped) == 0 || len(scr.capD.grown) == 0 {
		t.Fatalf("scenario drops %d and grows %d conduits; want both", len(scr.capD.dropped), len(scr.capD.grown))
	}
	if avg := testing.AllocsPerRun(100, decide); avg != 0 {
		t.Fatalf("reuse decision allocates %.1f per run, want 0", avg)
	}
	t.Logf("%d of %d demands reused", reused, len(cb.demands))
}
