package intertubes

import (
	"context"
	"fmt"
	"strings"

	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

// titleii.go turns the paper's §6.2 policy discussion into an
// experiment. The FCC's Title II reclassification entitles third
// parties to existing essential infrastructure — poles, ducts,
// conduits — so new entrants (the paper names Google's fiber
// deployment) would pull fiber through the incumbents' tubes rather
// than dig their own. The paper argues this trades deployment cost
// against "an increasingly vulnerable national long-haul fiber-optic
// infrastructure". Here we quantify that trade: rebuild the map with
// k additional entrants that enjoy mandated conduit access, and
// measure how much the shared-risk distribution degrades.

// TitleIIResult compares the baseline map with the post-entry map.
type TitleIIResult struct {
	Entrants []string
	// MeanSharing is the average tenant count over all conduits,
	// before and after entry.
	BaselineMeanSharing float64
	ScenarioMeanSharing float64
	// Tail counts conduits shared by at least 15 of the incumbent 20
	// (the §5 target set's scale), before and after.
	BaselineTail int
	ScenarioTail int
	// IncumbentMeanRise is the average increase in the incumbents'
	// Figure 7 means.
	IncumbentMeanRise float64
	// NewConduits counts conduits the entrants created that did not
	// exist in the baseline (under Title II economics this stays
	// small: entrants ride existing tubes).
	NewConduits int
}

// TitleIIScenario rebuilds the study's map with n new entrants that
// deploy under mandated-access economics (they always take the
// cheapest — most shared — trench; JitterAmp 0 and late build order
// give them the full occupancy discount).
func (s *Study) TitleIIScenario(n int) TitleIIResult {
	if n <= 0 {
		n = 3
	}
	profiles := mapbuilder.Profiles()
	var entrants []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Entrant-%d", i+1)
		entrants = append(entrants, name)
		profiles = append(profiles, mapbuilder.Profile{
			Name:     name,
			Tier:     mapbuilder.Tier1,
			Geocoded: true,
			// Entrants serve major metros first (the paper's broadband
			// build-out) and never deviate from existing trenches.
			POPTarget:  16,
			Redundancy: 0.15,
			JitterAmp:  0.01,
		})
	}
	scenario := mapbuilder.BuildWithProfiles(context.Background(), mapbuilder.Options{
		Seed:    s.opts.Seed,
		Records: recordsOptions(s.opts.Seed),
		Workers: s.opts.Workers,
	}, profiles)

	baseMx := s.mx
	// Compare sharing over the incumbent universe in both worlds: the
	// scenario matrix includes entrants as tenants, which is the point
	// — their presence raises every shared conduit's risk.
	scenMx := risk.Build(scenario.Map, nil)

	out := TitleIIResult{
		Entrants:            entrants,
		BaselineMeanSharing: baseMx.MeanSharing(),
		ScenarioMeanSharing: scenMx.MeanSharing(),
		BaselineTail:        len(baseMx.SharedAtLeast(15)),
		ScenarioTail:        len(scenMx.SharedAtLeast(15)),
	}

	// Per-incumbent Figure 7 rise.
	baseMean := make(map[string]float64)
	for _, r := range baseMx.Ranking() {
		baseMean[r.ISP] = r.Mean
	}
	var rise float64
	count := 0
	for _, r := range scenMx.Ranking() {
		if b, ok := baseMean[r.ISP]; ok {
			rise += r.Mean - b
			count++
		}
	}
	if count > 0 {
		out.IncumbentMeanRise = rise / float64(count)
	}

	// Conduits that exist only in the scenario.
	baseCorridors := make(map[int]bool)
	for i := range s.res.Map.Conduits {
		if len(s.res.Map.Conduits[i].Tenants) > 0 {
			baseCorridors[s.res.Map.Conduits[i].Corridor] = true
		}
	}
	for i := range scenario.Map.Conduits {
		c := &scenario.Map.Conduits[i]
		if len(c.Tenants) > 0 && !baseCorridors[c.Corridor] {
			out.NewConduits++
		}
	}
	return out
}

// RenderTitleII renders the scenario comparison.
func (s *Study) RenderTitleII(n int) string {
	r := s.TitleIIScenario(n)
	var b strings.Builder
	fmt.Fprintf(&b, "Title II scenario (§6.2): %d new entrants with mandated conduit access\n\n", len(r.Entrants))
	fmt.Fprintf(&b, "  mean conduit sharing:        %.2f -> %.2f (+%.1f%%)\n",
		r.BaselineMeanSharing, r.ScenarioMeanSharing,
		100*(r.ScenarioMeanSharing/r.BaselineMeanSharing-1))
	fmt.Fprintf(&b, "  conduits shared by >=15:     %d -> %d\n", r.BaselineTail, r.ScenarioTail)
	fmt.Fprintf(&b, "  avg incumbent Fig-7 rise:    +%.2f ISPs per conduit\n", r.IncumbentMeanRise)
	fmt.Fprintf(&b, "  new conduits dug by entrants: %d (mandated access makes digging rare)\n\n", r.NewConduits)
	b.WriteString("The paper's §6.2 trade-off, quantified: cheaper entry, but every\n")
	b.WriteString("newly shared tube concentrates more providers behind the same backhoe.\n")
	return b.String()
}
