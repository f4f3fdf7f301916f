package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"intertubes"
	"intertubes/internal/scenario"
)

var testStudy = intertubes.NewStudy(intertubes.Options{Seed: serverSeed, Probes: serverProbes})

func testMapInfo() mapInfo { return newMapInfo(testStudy.Map(), testStudy.RiskMatrix()) }

// TestDistinctScenariosDeterministic: the same seed gives identical
// request bytes, another seed different ones, and every hash is
// distinct and matches Resolve(sc).Hash().
func TestDistinctScenariosDeterministic(t *testing.T) {
	mi := testMapInfo()
	a, err := distinctScenarios(newRand(7, streamDistinct, 0), mi, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := distinctScenarios(newRand(7, streamDistinct, 0), mi, 500)
	if err != nil {
		t.Fatal(err)
	}
	c, err := distinctScenarios(newRand(8, streamDistinct, 0), mi, 500)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	hashes := make(map[string]bool)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("seed 7 body %d differs between draws", i)
		}
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
		if hashes[a[i].hash] {
			t.Fatalf("hash %s drawn twice", a[i].hash)
		}
		hashes[a[i].hash] = true
		res, err := scenario.Resolve(a[i].sc)
		if err != nil || res.Hash() != a[i].hash {
			t.Fatalf("scenario %d: hash %s, Resolve gives %v", i, a[i].hash, err)
		}
	}
	if same > len(a)/10 {
		t.Errorf("seeds 7 and 8 share %d of %d bodies", same, len(a))
	}
}

// TestGeneratedScenariosValid: every clause stays in range and every
// scenario of the mix evaluates without error, so no request earns a
// 400.
func TestGeneratedScenariosValid(t *testing.T) {
	mi := testMapInfo()
	m := testStudy.Map()
	set, err := distinctScenarios(newRand(3, streamDistinct, 0), mi, 10000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for i, e := range set {
		sc := e.sc
		for _, cid := range sc.CutConduits {
			if cid < 0 || int(cid) >= len(m.Conduits) {
				t.Fatalf("scenario %d: conduit %d out of range", i, cid)
			}
		}
		for _, ad := range sc.Additions {
			if ad.A == ad.B {
				t.Fatalf("scenario %d: addition %s - %s has one endpoint", i, ad.A, ad.B)
			}
			for _, k := range []string{ad.A, ad.B} {
				if _, ok := m.NodeByKey(k); !ok {
					t.Fatalf("scenario %d: addition endpoint %q is not a map node", i, k)
				}
			}
		}
		for _, r := range sc.Regions {
			if r.RadiusKm < 50 || r.RadiusKm > 300 {
				t.Fatalf("scenario %d: radius %g outside 50-300 km", i, r.RadiusKm)
			}
		}
		switch {
		case len(sc.Regions) > 0:
			kinds["region"]++
		case len(sc.CutConduits) > 0:
			kinds["cuts"]++
		case len(sc.RemoveISPs) > 0:
			kinds["removal"]++
		case len(sc.Additions) > 0:
			kinds["build"]++
		}
	}
	want := map[string]float64{"region": 0.40, "cuts": 0.30, "removal": 0.15, "build": 0.15}
	for k, share := range want {
		got := float64(kinds[k]) / float64(len(set))
		if got < share-0.02 || got > share+0.02 {
			t.Errorf("%s share %.3f, want %.2f", k, got, share)
		}
	}
	eng := testStudy.Scenarios().Engine()
	for _, i := range sampleIndexes(3, len(set), 40) {
		if _, err := eng.Evaluate(context.Background(), set[i].sc); err != nil {
			t.Fatalf("scenario %d (%s): %v", i, set[i].body, err)
		}
	}
}

func TestHotOpsDeterministic(t *testing.T) {
	draw := func(seed int64, client int) []hotOp {
		g := newHotOps(seed, client, hotSetSize, 40)
		out := make([]hotOp, 1000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(5, 0), draw(5, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different op sequences")
	}
	if reflect.DeepEqual(a, draw(5, 1)) {
		t.Fatal("two clients share one op sequence")
	}
	kinds := make([]int, 4)
	for _, op := range a {
		kinds[op.kind]++
		switch op.kind {
		case opScenario:
			if op.index < 0 || op.index >= hotSetSize {
				t.Fatalf("hot-set index %d", op.index)
			}
		case opPage, opRevalidate:
			if op.index < 1 || op.index > 40 {
				t.Fatalf("page %d", op.index)
			}
		}
	}
	if kinds[opScenario] < 550 || kinds[opScenario] > 650 {
		t.Errorf("%d scenario posts in 1000, want about 600", kinds[opScenario])
	}
}

// TestGridSpecs: ladders are seed-determined, distinct, two radii
// long, and plan a constant cell count.
func TestGridSpecs(t *testing.T) {
	a, b := gridSpecs(9, 40), gridSpecs(9, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different ladders")
	}
	seen := make(map[string]bool)
	cells := -1
	for _, s := range a {
		if len(s.RadiiKm) != 2 || s.CellKm != 300 || s.CullKm != 300 {
			t.Fatalf("spec %+v", s)
		}
		if seen[s.Hash()] {
			t.Fatalf("ladder %v drawn twice", s.RadiiKm)
		}
		seen[s.Hash()] = true
		plan, err := scenario.PlanGrid(testStudy.Map(), s)
		if err != nil {
			t.Fatal(err)
		}
		if cells >= 0 && plan.Total() != cells {
			t.Fatalf("ladder %v plans %d cells, the first planned %d", s.RadiiKm, plan.Total(), cells)
		}
		cells = plan.Total()
	}
}
