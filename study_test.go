package intertubes_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"intertubes"
	"intertubes/internal/fiber"
	"intertubes/internal/mitigate"
	"intertubes/internal/obs"
	"intertubes/internal/scenario"
)

// TestStudyRenderDigests pins every campaign-, latency-, additions-
// and co-location-derived artifact byte for byte: RenderAll covers
// Figures 4, 9, 11 and 12 and Tables 2-5, and the relay plan reads
// the latency study through the atlas.
func TestStudyRenderDigests(t *testing.T) {
	s := intertubes.NewStudy(intertubes.Options{Seed: 42, Probes: 20000})
	for _, tc := range []struct {
		name, text, want string
	}{
		{"RenderAll()", s.RenderAll(), "e76eff7e21bbea8414ce6cd6c7da767492cc5b92cb7bc6fe1a51f25ffb9fbec0"},
		{"RenderRelayPlan(3)", s.RenderRelayPlan(3), "b3c1c1440785a4f466854e1849f40f119167c93aa229bee069e446aca6ed753e"},
	} {
		sum := sha256.Sum256([]byte(tc.text))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func decideCalls() int64 {
	for _, st := range obs.Snapshot() {
		if st.Name == "traceroute.decide" {
			return st.Calls
		}
	}
	return 0
}

// TestWhatIfSharesStudyBaseline checks that the Study's campaign and
// latency study are the engine's baseline products: a default-size
// traffic+latency scenario after Campaign() runs only its perturbed
// campaign, and its Before columns summarize the Study's own products.
func TestWhatIfSharesStudyBaseline(t *testing.T) {
	s := intertubes.NewStudy(intertubes.Options{Probes: 4000, LatencyMaxPairs: 200, AddConduits: 2})
	before := decideCalls()
	camp := s.Campaign()
	res, err := s.WhatIf(context.Background(), scenario.Scenario{
		CutConduits:    []fiber.ConduitID{s.TargetConduits()[0]},
		IncludeTraffic: true,
		IncludeLatency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := decideCalls() - before; got != 2 {
		t.Errorf("Campaign() then a traffic what-if ran %d campaigns, want 2 (the study's and the perturbed one)", got)
	}
	pub, over := camp.SharingWithTraffic()
	want := scenario.TrafficSummary{Conduits: len(pub), MeanPublished: mean(pub), MeanOverlaid: mean(over)}
	if res.Traffic.Before != want {
		t.Errorf("Traffic.Before = %+v, want the study campaign's %+v", res.Traffic.Before, want)
	}
	if got, want := res.Latency.Before, mitigate.Summarize(s.Latency()); got != want {
		t.Errorf("Latency.Before = %+v, want the study's %+v", got, want)
	}
}

func mean(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
