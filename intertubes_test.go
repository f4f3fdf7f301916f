package intertubes_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intertubes"
)

var cached *intertubes.Study

// study returns a shared small-campaign study; the facade caches every
// stage, and the study is deterministic, so sharing is safe.
func study(t *testing.T) *intertubes.Study {
	t.Helper()
	if cached == nil {
		cached = intertubes.NewStudy(intertubes.Options{
			Probes:          20000,
			LatencyMaxPairs: 600,
			AddConduits:     3,
		})
	}
	return cached
}

func TestStudyHeadline(t *testing.T) {
	s := study(t)
	st := s.Map().Stats()
	if st.ISPs != 20 {
		t.Errorf("ISPs = %d", st.ISPs)
	}
	if st.Conduits < 250 {
		t.Errorf("conduits = %d", st.Conduits)
	}
}

func TestRenderersProduceTheirArtifacts(t *testing.T) {
	s := study(t)
	cases := []struct {
		name    string
		render  func() string
		markers []string
	}{
		{"Table1", s.RenderTable1, []string{"Table 1", "Level 3", "EarthLink"}},
		{"Step3", s.RenderStep3, []string{"Step 3", "Sprint", "CenturyLink"}},
		{"Figure1", s.RenderFigure1, []string{"Figure 1", "conduits:", "sharing"}},
		{"Figure4", s.RenderFigure4, []string{"Figure 4", "rail or road"}},
		{"Figure6", s.RenderFigure6, []string{"Figure 6", "k= 1", "k=20"}},
		{"Figure7", s.RenderFigure7, []string{"Figure 7", "avg sharing"}},
		{"Figure8", s.RenderFigure8, []string{"Figure 8", "legend"}},
		{"Figure9", s.RenderFigure9, []string{"Figure 9", "physical map only", "traceroute overlaid"}},
		{"Table2", s.RenderTable2, []string{"Table 2", "# Probes"}},
		{"Table3", s.RenderTable3, []string{"Table 3", "# Probes"}},
		{"Table4", s.RenderTable4, []string{"Table 4", "Level 3"}},
		{"Figure10", s.RenderFigure10, []string{"Figure 10", "SRR avg"}},
		{"Table5", s.RenderTable5, []string{"Table 5", "|"}},
		{"Figure11", s.RenderFigure11, []string{"Figure 11", "chosen additions"}},
		{"Figure12", s.RenderFigure12, []string{"Figure 12", "best paths", "LOS"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := c.render()
			if len(out) < 40 {
				t.Fatalf("suspiciously short output: %q", out)
			}
			for _, m := range c.markers {
				if !strings.Contains(out, m) {
					t.Errorf("missing %q in:\n%s", m, out)
				}
			}
		})
	}
}

func TestRenderAllCoversEverything(t *testing.T) {
	s := study(t)
	out := s.RenderAll()
	for _, marker := range []string{
		"Table 1", "Figure 1", "Figure 4", "Figure 6", "Figure 7", "Figure 8",
		"Figure 9", "Table 2", "Table 3", "Table 4", "Figure 10", "Table 5",
		"Figure 11", "Figure 12",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("RenderAll missing %s", marker)
		}
	}
}

func TestPaperShapeAssertions(t *testing.T) {
	s := study(t)
	// Figure 6 shape: monotone decreasing, ~90% shared by >=2.
	counts := s.RiskMatrix().SharingCounts()
	total := counts[0]
	if frac := float64(counts[1]) / float64(total); frac < 0.80 || frac > 0.97 {
		t.Errorf("share>=2 = %.3f", frac)
	}
	// Figure 7 shape: the small internationals are the most exposed.
	ranking := s.RiskMatrix().Ranking()
	topThird := map[string]bool{}
	for _, r := range ranking[len(ranking)*2/3:] {
		topThird[r.ISP] = true
	}
	exposedCount := 0
	for _, isp := range []string{"Deutsche Telekom", "NTT", "Inteliquent", "TeliaSonera"} {
		if topThird[isp] {
			exposedCount++
		}
	}
	if exposedCount < 3 {
		t.Errorf("only %d of 4 small internationals in the most-exposed third", exposedCount)
	}
	// Table 5 shape: Level 3 dominates suggested peerings.
	level3 := 0
	for _, r := range s.Robustness() {
		for _, p := range r.SuggestedPeers {
			if p == "Level 3" {
				level3++
			}
		}
	}
	if level3 < 10 {
		t.Errorf("Level 3 suggested %d times", level3)
	}
}

func TestTargetConduits(t *testing.T) {
	s := study(t)
	targets := s.TargetConduits()
	if len(targets) != 12 {
		t.Fatalf("targets = %d, want the paper's 12", len(targets))
	}
	// Each target is heavily shared.
	for _, cid := range targets {
		if s.RiskMatrix().Sharing(cid) < 10 {
			t.Errorf("target %d shared by only %d", cid, s.RiskMatrix().Sharing(cid))
		}
	}
}

func TestExportGeoJSON(t *testing.T) {
	s := study(t)
	dir := t.TempDir()
	if err := s.ExportGeoJSON(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fibermap.geojson", "roads.geojson", "rails.geojson", "pipelines.geojson"} {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(raw) < 100 || !strings.Contains(string(raw[:60]), "FeatureCollection") {
			t.Errorf("%s looks wrong", f)
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	a := intertubes.NewStudy(intertubes.Options{Probes: 5000})
	b := intertubes.NewStudy(intertubes.Options{Probes: 5000})
	if a.RenderFigure1() != b.RenderFigure1() {
		t.Error("Figure 1 differs between identically-seeded studies")
	}
	if a.RenderTable2() != b.RenderTable2() {
		t.Error("Table 2 differs between identically-seeded studies")
	}
}

func TestSeedChangesStudy(t *testing.T) {
	a := intertubes.NewStudy(intertubes.Options{Seed: 1, Probes: 5000})
	b := intertubes.NewStudy(intertubes.Options{Seed: 2, Probes: 5000})
	if a.RenderFigure1() == b.RenderFigure1() {
		t.Error("different seeds should give different maps")
	}
}

// TestNewStudyRejectsNegativeProbes: NewStudy has no error return, so
// a negative campaign size panics up front, naming the field, instead
// of deep inside the campaign.
func TestNewStudyRejectsNegativeProbes(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Options.Probes must be >= 0 (got -1)") {
			t.Errorf("NewStudy(Probes: -1) panicked with %q, want a message naming Options.Probes", msg)
		}
	}()
	intertubes.NewStudy(intertubes.Options{Probes: -1})
}
