package mapbuilder

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"intertubes/internal/atlas"
	"intertubes/internal/graph"
)

// footprint.go generates a provider's ground-truth physical footprint
// over the corridor graph. The central modelling assumption — taken
// straight from the paper — is that conduit placement is driven by
// shared economics: everyone wants the cheapest trench, and the
// cheapest trench is the one that already exists along the busiest
// right-of-way. We express that as a corridor cost shared by all
// providers, with a per-provider multiplicative jitter whose amplitude
// models how much a given provider deviated from the herd
// (JitterAmp in the Profile).

// Footprint is a provider's ground-truth deployment.
type Footprint struct {
	// Edges is the set of corridor edge ids the provider occupies.
	Edges map[int]bool
	// POPs are the atlas city indices the provider set out to serve.
	POPs []int
	// Routes are the logical links of the provider's published
	// POP-level map: city-index pairs its backbone connects directly.
	Routes [][2]int
}

// rowFactor expresses that corridors with both road and rail are the
// cheapest to build in (established ROW, grading, access), pipelines
// the dearest.
func rowFactor(r atlas.ROW) float64 {
	switch r {
	case atlas.ROWBoth:
		return 1.0
	case atlas.ROWRoad:
		return 1.08
	case atlas.ROWRail:
		return 1.18
	default: // pipeline
		return 1.45
	}
}

// hash01 maps (name, id) to a deterministic value in [0,1).
func hash01(name string, id int) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
	return float64(h.Sum64()%1e9) / 1e9
}

// occupancyDiscount models the economics at the heart of the paper:
// pulling fiber through a conduit that already exists (dug by an
// earlier provider) costs a fraction of trenching a new one, so the
// more tenants a conduit has, the cheaper the next tenant's entry.
// This positive feedback is what concentrates 19 ISPs into the same
// tube between Salt Lake City and Denver.
func occupancyDiscount(tenants int) float64 {
	return 0.35 + 0.65/float64(1+tenants)
}

// costFunc returns the provider's corridor traversal cost given the
// current occupancy (tenant count per corridor edge) of earlier
// builders. occupancy may be nil for a greenfield cost model.
func costFunc(a *atlas.Atlas, prof Profile, occupancy []int) graph.WeightFunc {
	return func(eid int) float64 {
		c := &a.Corridors[eid]
		// Jitter multiplier in [1-amp, 1+amp], deterministic per
		// (provider, corridor).
		j := 1 + prof.JitterAmp*(2*hash01(prof.Name, eid)-1)
		w := c.LengthKm * rowFactor(c.ROW) * j
		if occupancy != nil {
			w *= occupancyDiscount(occupancy[eid])
		}
		return w
	}
}

// selectPOPs scores every city by population, regional bias, and a
// provider-specific lognormal jitter, then takes the top POPTarget.
func selectPOPs(a *atlas.Atlas, prof Profile, rng *rand.Rand) []int {
	bias := make(map[string]bool, len(prof.BiasStates))
	for _, st := range prof.BiasStates {
		bias[st] = true
	}
	bw := prof.BiasWeight
	if bw <= 0 {
		bw = 1
	}
	type scored struct {
		city  int
		score float64
	}
	all := make([]scored, len(a.Cities))
	// POP-selection noise scales with the provider's route jitter:
	// conservative late entrants (Deutsche Telekom, NTT, ...) serve
	// exactly the biggest metros, while diverse builders spread out.
	sigma := 0.15 + prof.JitterAmp
	exp := prof.PopExponent
	if exp == 0 {
		exp = 1
	}
	for i, c := range a.Cities {
		s := math.Pow(float64(c.Population), exp)
		if bias[c.State] {
			s *= bw
		}
		s *= math.Exp(rng.NormFloat64() * sigma)
		all[i] = scored{city: i, score: s}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	n := prof.POPTarget
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].city
	}
	return out
}

// GenerateFootprint builds the provider's ground-truth footprint:
// POP selection, incremental attachment of each POP to the growing
// backbone along cheapest corridors, then redundancy routes that are
// pushed off already-owned edges to create rings.
//
// occupancy, when non-nil, is the per-corridor tenant count of
// providers that built before this one; its edges are discounted
// (see occupancyDiscount). Callers building a full provider universe
// should generate footprints in deployment order and accumulate
// occupancy between calls.
func GenerateFootprint(a *atlas.Atlas, g *graph.Graph, prof Profile, seed int64, occupancy []int) Footprint {
	h := fnv.New64a()
	h.Write([]byte(prof.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	fp := Footprint{Edges: make(map[int]bool)}
	fp.POPs = selectPOPs(a, prof, rng)
	if len(fp.POPs) == 0 {
		return fp
	}
	// The provider's costs are fixed for the whole footprint, so they
	// are materialized once: every attachment and redundancy query
	// reads the table instead of hashing each corridor again.
	costs := g.Weights(costFunc(a, prof, occupancy), nil)

	// One workspace serves every attachment and redundancy query of
	// this footprint.
	ws := graph.NewWorkspace()

	// Each POP attaches to the backbone by the cheapest path to its
	// nearest connected vertex; equally near vertices break to the
	// lowest id, so the choice is deterministic.
	connected := make([]bool, g.NumVertices())
	connected[fp.POPs[0]] = true
	for _, pop := range fp.POPs[1:] {
		if connected[pop] {
			continue
		}
		path, ok := g.NearestPath(ws, pop, costs, connected)
		if !ok {
			continue // isolated; cannot attach (should not happen on a connected atlas)
		}
		for _, eid := range path.Edges {
			fp.Edges[eid] = true
		}
		for _, v := range path.Nodes {
			connected[v] = true
		}
		fp.Routes = append(fp.Routes, [2]int{pop, path.Nodes[len(path.Nodes)-1]})
	}

	// Redundancy: extra routes between random POP pairs, biased away
	// from edges the provider already owns so they form rings.
	nExtra := int(math.Round(prof.Redundancy * float64(len(fp.POPs))))
	divWF := func(eid int) float64 {
		w := costs[eid]
		if fp.Edges[eid] {
			w *= 2.5
		}
		return w
	}
	for i := 0; i < nExtra; i++ {
		p := fp.POPs[rng.Intn(len(fp.POPs))]
		q := fp.POPs[rng.Intn(len(fp.POPs))]
		if p == q {
			continue
		}
		path, ok := g.ShortestPath(ws, p, q, divWF)
		if !ok {
			continue
		}
		newEdge := false
		for _, eid := range path.Edges {
			if !fp.Edges[eid] {
				newEdge = true
			}
			fp.Edges[eid] = true
		}
		if newEdge {
			fp.Routes = append(fp.Routes, [2]int{p, q})
		}
	}
	return fp
}

// Nodes returns the distinct cities touched by the footprint's edges,
// ascending.
func (fp Footprint) Nodes(a *atlas.Atlas) []int {
	seen := make(map[int]bool)
	for eid := range fp.Edges {
		c := &a.Corridors[eid]
		seen[c.A] = true
		seen[c.B] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
