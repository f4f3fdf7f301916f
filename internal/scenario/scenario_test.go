package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"intertubes/internal/fiber"
)

func TestHashOrderIndependence(t *testing.T) {
	a := Scenario{
		CutConduits: []fiber.ConduitID{3, 1, 2, 1},
		RemoveISPs:  []string{"B", "A", "B"},
		Regions: []Region{
			{Lat: 30, Lon: -90, RadiusKm: 100},
			{Lat: 29, Lon: -95, RadiusKm: 50},
		},
		Additions: []Addition{{A: "Y,YY", B: "X,XX"}, {A: "X,XX", B: "Y,YY"}},
	}
	b := Scenario{
		CutConduits: []fiber.ConduitID{1, 2, 3},
		RemoveISPs:  []string{"A", "B"},
		Regions: []Region{
			{Lat: 29, Lon: -95, RadiusKm: 50},
			{Lat: 30, Lon: -90, RadiusKm: 100},
		},
		Additions: []Addition{{A: "X,XX", B: "Y,YY"}},
	}
	if a.Hash() != b.Hash() {
		t.Errorf("logically equal scenarios hash differently:\n %s\n %s", a.Hash(), b.Hash())
	}
}

func TestHashIgnoresName(t *testing.T) {
	a := Scenario{Name: "one", CutMostShared: 5}
	b := Scenario{Name: "two", CutMostShared: 5}
	if a.Hash() != b.Hash() {
		t.Error("Name must not enter the hash")
	}
}

func TestHashDistinguishesPerturbations(t *testing.T) {
	seen := map[string]Scenario{}
	for _, sc := range []Scenario{
		{},
		{CutMostShared: 5},
		{CutMostShared: 6},
		{CutMostBetween: 5},
		{CutConduits: []fiber.ConduitID{5}},
		{RemoveISPs: []string{"Level 3"}},
		{Regions: []Region{{Lat: 30, Lon: -90, RadiusKm: 100}}},
		{Regions: []Region{{Lat: 30, Lon: -90, RadiusKm: 101}}},
		{Additions: []Addition{{A: "X,XX", B: "Y,YY"}}},
		{Additions: []Addition{{A: "X,XX", B: "Y,YY", Tenants: []string{"Z"}}}},
		{IncludeLatency: true},
		{IncludeTraffic: true},
		{IncludeLatency: true, Overrides: Overrides{LatencyMaxPairs: 10}},
		{IncludeTraffic: true, Overrides: Overrides{Probes: 10}},
	} {
		h := sc.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision %s between %+v and %+v", h, prev, sc)
		}
		seen[h] = sc
	}
}

func TestResolvePresetEqualsExplicit(t *testing.T) {
	byPreset, err := Resolve(Scenario{Preset: "top12-cut"})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Resolve(Scenario{Name: "top12-cut", CutMostShared: 12})
	if err != nil {
		t.Fatal(err)
	}
	if byPreset.Hash() != explicit.Hash() {
		t.Errorf("preset and explicit spelling hash differently")
	}
	if byPreset.Preset != "" {
		t.Errorf("Resolve should clear Preset, got %q", byPreset.Preset)
	}
}

func TestResolveMergesOnTopOfPreset(t *testing.T) {
	sc, err := Resolve(Scenario{
		Preset:     "gulf-hurricane",
		RemoveISPs: []string{"Sprint"},
		Regions:    []Region{{Lat: 25.76, Lon: -80.19, RadiusKm: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "gulf-hurricane" {
		t.Errorf("Name = %q", sc.Name)
	}
	if len(sc.Regions) != 2 {
		t.Errorf("regions should compose, got %v", sc.Regions)
	}
	if !reflect.DeepEqual(sc.RemoveISPs, []string{"Sprint"}) {
		t.Errorf("RemoveISPs = %v", sc.RemoveISPs)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"unknown preset", Scenario{Preset: "nope"}},
		{"negative shared", Scenario{CutMostShared: -1}},
		{"negative conduit", Scenario{CutConduits: []fiber.ConduitID{-2}}},
		{"zero radius", Scenario{Regions: []Region{{Lat: 30, Lon: -90}}}},
		{"off-globe", Scenario{Regions: []Region{{Lat: 120, Lon: -90, RadiusKm: 10}}}},
		{"self addition", Scenario{Additions: []Addition{{A: "X,XX", B: "X,XX"}}}},
		{"empty addition", Scenario{Additions: []Addition{{A: "X,XX"}}}},
		{"negative probes", Scenario{Overrides: Overrides{Probes: -1}}},
		{"probes above MaxProbes", Scenario{Overrides: Overrides{Probes: MaxProbes + 1}}},
	}
	for _, tc := range cases {
		if _, err := Resolve(tc.sc); err == nil {
			t.Errorf("%s: Resolve accepted %+v", tc.name, tc.sc)
		}
	}
	// Non-finite region fields pass the range tests; the error names
	// the field.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		r     Region
	}{
		{"lat", Region{Lat: nan, Lon: -90, RadiusKm: 10}},
		{"radiusKm", Region{Lat: 30, Lon: -90, RadiusKm: nan}},
		{"radiusKm", Region{Lat: 30, Lon: -90, RadiusKm: inf}},
		{"lon", Region{Lat: 30, Lon: -inf, RadiusKm: 10}},
	} {
		_, err := Resolve(Scenario{Regions: []Region{tc.r}})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("region %+v: err = %v, want one naming %s", tc.r, err, tc.field)
		}
	}
}

func TestPresetsResolve(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	for _, name := range names {
		sc, err := Resolve(Scenario{Preset: name})
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if len(sc.CutConduits) == 0 && sc.CutMostShared == 0 && sc.CutMostBetween == 0 &&
			len(sc.Regions) == 0 && len(sc.RemoveISPs) == 0 && len(sc.Additions) == 0 {
			t.Errorf("preset %s resolves to the null scenario", name)
		}
	}
	if len(Presets()) != len(names) {
		t.Errorf("Presets() and PresetNames() disagree")
	}
}
