package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

// fuzz_test.go drives the clone-vs-overlay differential harness from
// fuzzed perturbations over a small atlas: whatever the fuzzer
// composes, the engine and the clone reference (clone_ref_test.go)
// must agree byte for byte (or fail with the same error), and neither
// may panic. Every scenario that evaluates is evaluated again with one
// more conduit cut, which must hold TestNestedCutsMonotone's
// properties.

var (
	fuzzOnce  sync.Once
	fuzzOv    *Engine
	fuzzCl    *Engine
	fuzzRes   *mapbuilder.Result
	fuzzIsps  []string
	fuzzNodes int
)

// fuzzEngines builds one tiny three-provider atlas and two engines
// over it: the one under test and the one whose snapshot the clone
// reference runs on. Small on purpose: the clone reference runs on
// every fuzz input.
func fuzzEngines() (*Engine, *Engine) {
	fuzzOnce.Do(func() {
		profiles := []mapbuilder.Profile{
			{Name: "Alpha", Tier: mapbuilder.Tier1, Geocoded: true, POPTarget: 10, Redundancy: 0.2, JitterAmp: 0.2},
			{Name: "Beta", Tier: mapbuilder.Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.2, JitterAmp: 0.2},
			{Name: "Gamma", Tier: mapbuilder.Regional, Geocoded: true, POPTarget: 6, Redundancy: 0.3, JitterAmp: 0.2},
		}
		fuzzRes = mapbuilder.BuildWithProfiles(context.Background(), mapbuilder.Options{Seed: 3}, profiles)
		mx := risk.Build(fuzzRes.Map, nil)
		fuzzIsps = mx.ISPs
		fuzzNodes = fuzzRes.Map.NumNodes()
		fuzzOv = New(fuzzRes, mx, Options{Seed: 3})
		fuzzCl = New(fuzzRes, mx, Options{Seed: 3})
	})
	return fuzzOv, fuzzCl
}

// fuzzScenario shapes arbitrary fuzz bytes into a scenario. Values
// are folded into valid ranges except the cut ids, which may go out
// of range on purpose — both evaluators must then fail identically.
// tenantMask's low bits pick the addition's tenants; its top bit asks
// for the latency stage over a small pair cap.
func fuzzScenario(cutA, cutB uint16, shared, between, rmMask, addA, addB, tenantMask uint8) Scenario {
	var sc Scenario
	nc := fuzzRes.Map.NumConduits()
	if cutA > 0 {
		sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(int(cutA)%(nc+3)))
	}
	if cutB > 0 {
		sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(int(cutB)%(nc+3)))
	}
	sc.CutMostShared = int(shared % 8)
	sc.CutMostBetween = int(between % 8)
	for i, isp := range fuzzIsps {
		if rmMask&(1<<uint(i)) != 0 {
			sc.RemoveISPs = append(sc.RemoveISPs, isp)
		}
	}
	a, b := int(addA)%fuzzNodes, int(addB)%fuzzNodes
	if a != b {
		var tenants []string
		for i, isp := range fuzzIsps {
			if tenantMask&(1<<uint(i)) != 0 {
				tenants = append(tenants, isp)
			}
		}
		sc.Additions = []Addition{{
			A:       fuzzRes.Map.Node(fiber.NodeID(a)).Key(),
			B:       fuzzRes.Map.Node(fiber.NodeID(b)).Key(),
			Tenants: tenants, // empty = open access
		}}
	}
	if tenantMask&0x80 != 0 {
		sc.IncludeLatency = true
		sc.Overrides.LatencyMaxPairs = 12
	}
	return sc
}

// checkOneMoreCut evaluates sc with conduit extra cut as well and
// checks the nested-cut properties against r, sc's Result: no more
// Gbps served, no provider's disconnection lower, no largest
// component larger.
func checkOneMoreCut(t *testing.T, eng *Engine, sc Scenario, r *Result, extra fiber.ConduitID) {
	t.Helper()
	sc.CutConduits = append(slices.Clip(sc.CutConduits), extra)
	rs, err := eng.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatalf("adding cut %d: %v", extra, err)
	}
	if a, b := r.LostTraffic.ServedAfterGbps, rs.LostTraffic.ServedAfterGbps; b > a {
		t.Fatalf("cut %d raises served Gbps from %v to %v (scenario %+v)", extra, a, b, sc)
	}
	before := make(map[string]Disconnection, len(r.Disconnection))
	for _, d := range r.Disconnection {
		before[d.ISP] = d
	}
	for _, d := range rs.Disconnection {
		s, ok := before[d.ISP]
		switch {
		case !ok:
			t.Fatalf("cut %d: no disconnection row for %s before it", extra, d.ISP)
		case d.After < s.After:
			t.Fatalf("%s: cut %d lowers disconnection from %v to %v (scenario %+v)", d.ISP, extra, s.After, d.After, sc)
		case d.LargestComponent > s.LargestComponent:
			t.Fatalf("%s: cut %d grows the largest component from %v to %v (scenario %+v)", d.ISP, extra, s.LargestComponent, d.LargestComponent, sc)
		}
	}
}

func FuzzOverlayEvaluate(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(1), uint16(5), uint8(3), uint8(2), uint8(1), uint8(0), uint8(7), uint8(2))
	f.Add(uint16(9999), uint16(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(2), uint8(0))
	f.Add(uint16(4), uint16(4), uint8(7), uint8(7), uint8(7), uint8(3), uint8(9), uint8(5))
	f.Add(uint16(40), uint16(0), uint8(0), uint8(1), uint8(0), uint8(9), uint8(9), uint8(0x80))
	f.Add(uint16(3), uint16(11), uint8(0), uint8(2), uint8(2), uint8(1), uint8(5), uint8(0x81))
	f.Fuzz(func(t *testing.T, cutA, cutB uint16, shared, between, rmMask, addA, addB, tenantMask uint8) {
		ov, cl := fuzzEngines()
		sc := fuzzScenario(cutA, cutB, shared, between, rmMask, addA, addB, tenantMask)
		ctx := context.Background()

		rOv, errOv := ov.Evaluate(ctx, sc)
		rCl, errCl := referenceEvaluate(ctx, cl, sc)
		if (errOv == nil) != (errCl == nil) {
			t.Fatalf("error disagreement: overlay=%v clone=%v (scenario %+v)", errOv, errCl, sc)
		}
		if errOv != nil {
			if errOv.Error() != errCl.Error() {
				t.Fatalf("error text disagreement: overlay=%q clone=%q", errOv, errCl)
			}
			return
		}
		bOv, err := json.Marshal(rOv)
		if err != nil {
			t.Fatal(err)
		}
		bCl, err := json.Marshal(rCl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bOv, bCl) {
			t.Fatalf("overlay and clone Results diverge for %+v:\n overlay: %s\n clone:   %s", sc, bOv, bCl)
		}
		extra := fiber.ConduitID((int(cutA) + int(cutB) + int(addB)) % fuzzRes.Map.NumConduits())
		if !slices.Contains(rOv.Cut, extra) {
			checkOneMoreCut(t, ov, sc, rOv, extra)
		}
	})
}
