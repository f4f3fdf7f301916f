package atlas

import (
	"strings"
	"testing"
)

func TestLoadParsesCleanly(t *testing.T) {
	a := Load()
	if len(a.Cities) < 200 {
		t.Errorf("cities = %d, want >= 200", len(a.Cities))
	}
	if len(a.Corridors) < 250 {
		t.Errorf("corridors = %d, want >= 250", len(a.Corridors))
	}
}

func TestCorridorGraphConnected(t *testing.T) {
	a := Load()
	comps := a.Graph().Components()
	if len(comps) != 1 {
		// Report the smaller components to make data bugs easy to fix.
		var orphans []string
		for _, comp := range comps[1:] {
			for _, v := range comp {
				orphans = append(orphans, a.Cities[v].Key())
			}
		}
		t.Fatalf("corridor graph has %d components; stranded: %v", len(comps), orphans)
	}
}

func TestEveryCityHasACorridor(t *testing.T) {
	a := Load()
	deg := make([]int, len(a.Cities))
	for _, c := range a.Corridors {
		deg[c.A]++
		deg[c.B]++
	}
	for i, d := range deg {
		if d == 0 {
			t.Errorf("city %s has no corridors", a.Cities[i].Key())
		}
	}
}

func TestPaperCitiesPresent(t *testing.T) {
	a := Load()
	// Cities named in the paper's tables and examples must exist.
	for _, key := range []string{
		"Trenton,NJ", "Edison,NJ", "Kalamazoo,MI", "Battle Creek,MI",
		"Dallas,TX", "Fort Worth,TX", "Baltimore,MD", "Towson,MD",
		"Baton Rouge,LA", "New Orleans,LA", "Livonia,MI", "Southfield,MI",
		"Topeka,KS", "Lincoln,NE", "Spokane,WA", "Boise,ID",
		"Bryan,TX", "Shreveport,LA", "Wichita Falls,TX",
		"San Luis Obispo,CA", "Lompoc,CA", "Wells,NV", "Salt Lake City,UT",
		"Lansing,MI", "South Bend,IN", "Philadelphia,PA", "Allentown,PA",
		"West Palm Beach,FL", "Boca Raton,FL", "Lynchburg,VA",
		"Charlottesville,VA", "Sedona,AZ", "Camp Verde,AZ", "Bozeman,MT",
		"Billings,MT", "Casper,WY", "Cheyenne,WY", "White Plains,NY",
		"Stamford,CT", "Amarillo,TX", "Eugene,OR", "Chico,CA",
		"Phoenix,AZ", "Provo,UT", "Eau Claire,WI", "Madison,WI",
		"Bakersfield,CA", "Hillsboro,OR", "Santa Barbara,CA",
		"Gainesville,FL", "Ocala,FL", "Laurel,MS", "Anaheim,CA",
		"Urbana,IL", "Tucson,AZ", "Denver,CO",
	} {
		if _, ok := a.byKey[key]; !ok {
			t.Errorf("missing paper city %q", key)
		}
	}
}

func TestCorridorGeometry(t *testing.T) {
	a := Load()
	for i, c := range a.Corridors {
		ca, cb := a.Cities[c.A], a.Cities[c.B]
		gc := ca.Loc.DistanceKm(cb.Loc)
		if c.LengthKm < gc*0.999 {
			t.Errorf("corridor %d (%s-%s): length %.1f < great circle %.1f",
				i, ca.Key(), cb.Key(), c.LengthKm, gc)
		}
		if c.LengthKm > gc*1.35+20 {
			t.Errorf("corridor %d (%s-%s): length %.1f too circuitous vs %.1f",
				i, ca.Key(), cb.Key(), c.LengthKm, gc)
		}
		// Geometry must begin and end at the cities.
		if c.Geometry[0].DistanceKm(ca.Loc) > 0.1 ||
			c.Geometry[len(c.Geometry)-1].DistanceKm(cb.Loc) > 0.1 {
			t.Errorf("corridor %d endpoints do not match cities", i)
		}
		// Per-mode geometry presence must match the ROW class.
		if c.ROW.HasRoad() != (c.RoadGeom != nil) {
			t.Errorf("corridor %d road geometry mismatch", i)
		}
		if c.ROW.HasRail() != (c.RailGeom != nil) {
			t.Errorf("corridor %d rail geometry mismatch", i)
		}
		if (c.ROW == ROWPipeline) != (c.PipeGeom != nil) {
			t.Errorf("corridor %d pipeline geometry mismatch", i)
		}
	}
}

func TestGeometryDeterministic(t *testing.T) {
	a1, a2 := Load(), Load()
	for i := range a1.Corridors {
		g1, g2 := a1.Corridors[i].Geometry, a2.Corridors[i].Geometry
		if len(g1) != len(g2) {
			t.Fatalf("corridor %d geometry length differs between loads", i)
		}
		for j := range g1 {
			if g1[j] != g2[j] {
				t.Fatalf("corridor %d point %d differs between loads", i, j)
			}
		}
	}
}

func TestRoadRailSeparation(t *testing.T) {
	a := Load()
	for i, c := range a.Corridors {
		if c.ROW != ROWBoth {
			continue
		}
		// Road and rail must stay near each other (same corridor) but
		// not be identical.
		identical := true
		for j := range c.RoadGeom {
			if j < len(c.RailGeom) && c.RoadGeom[j] != c.RailGeom[j] {
				identical = false
				break
			}
		}
		if identical && len(c.RoadGeom) > 2 {
			t.Errorf("corridor %d: road and rail identical", i)
		}
		mid := c.RoadGeom[len(c.RoadGeom)/2]
		if d := c.RailGeom.DistanceToKm(mid); d > 30 {
			t.Errorf("corridor %d: road and rail diverge %.1f km", i, d)
		}
	}
}

func TestCityLookups(t *testing.T) {
	a := Load()
	i := a.MustCity("Denver,CO")
	if a.Cities[i].State != "CO" {
		t.Errorf("MustCity returned %v", a.Cities[i])
	}
	if _, ok := a.byKey["Atlantis,XX"]; ok {
		t.Error("found a city that should not exist")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCity should panic on unknown city")
		}
	}()
	a.MustCity("Atlantis,XX")
}

func TestDuplicateCorridorsAreIntentional(t *testing.T) {
	a := Load()
	// Parallel corridors (same city pair) are allowed but should be
	// rare and justified (e.g. the I-15 and UTA alignments between
	// SLC and Provo).
	count := map[[2]int]int{}
	for _, c := range a.Corridors {
		k := [2]int{min(c.A, c.B), max(c.A, c.B)}
		count[k]++
	}
	parallel := 0
	for _, n := range count {
		if n > 1 {
			parallel += n - 1
		}
	}
	if parallel > 5 {
		t.Errorf("%d parallel corridors; verify the data is intentional", parallel)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name     string
		cities   string
		corrs    string
		errMatch string
	}{
		{"bad city fields", "A|B|1", "", "want 5 fields"},
		{"bad lat", "A|ST|x|0|1", "", "lat"},
		{"bad lon", "A|ST|0|x|1", "", "lon"},
		{"bad pop", "A|ST|0|0|x", "", "population"},
		{"invalid coords", "A|ST|95|0|1", "", "invalid coordinates"},
		{"dup city", "A|ST|0|0|1\nA|ST|1|1|2", "", "duplicate"},
		{"bad corridor fields", "A|ST|0|0|1", "A,ST|B,ST|road", "want 4 fields"},
		{"unknown city", "A|ST|0|0|1", "A,ST|B,ST|road|X", "unknown city"},
		{"self loop", "A|ST|0|0|1", "A,ST|A,ST|road|X", "self-loop"},
		{"bad row", "A|ST|0|0|1\nB|ST|1|1|1", "A,ST|B,ST|tube|X", "unknown right-of-way"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(c.cities, c.corrs)
			if err == nil || !strings.Contains(err.Error(), c.errMatch) {
				t.Errorf("err = %v, want contains %q", err, c.errMatch)
			}
		})
	}
}

func TestLayers(t *testing.T) {
	a := Load()
	roads := a.RoadPolylines()
	rails := a.RailPolylines()
	pipes := a.PipelinePolylines()
	if len(roads) == 0 || len(rails) == 0 {
		t.Fatal("road and rail layers must be non-empty")
	}
	if len(roads) <= len(rails) {
		t.Errorf("roads (%d) should outnumber rails (%d): more corridors are road-only", len(roads), len(rails))
	}
	if len(pipes) < 2 {
		t.Errorf("pipelines = %d, want the CalNev and Dixie routes", len(pipes))
	}
}
