package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"intertubes/internal/fiber"
	"intertubes/internal/risk"
	"intertubes/internal/scenario"
)

// gen.go turns the workload seed into request bytes. Every generator
// draws from its own math/rand stream derived from the seed, emits
// only specs the server accepts (conduit ids in range, existing and
// distinct addition endpoints), and encodes bodies before any timed
// window opens. The same seed and map give identical bytes.

// Stream tags keep the generators' random streams independent, so
// adding draws to one never shifts another.
const (
	streamDistinct = iota + 1
	streamHotSet
	streamHotOps
	streamSample
	streamGrid
)

func newRand(seed int64, stream, sub int) *rand.Rand {
	// splitmix64-style mixing so nearby seeds give unrelated streams.
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(sub)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// mapInfo is the part of the baseline map the generators draw from.
type mapInfo struct {
	conduits int
	nodes    []string
	lat, lon []float64
	isps     []string
}

func newMapInfo(m *fiber.Map, mx *risk.Matrix) mapInfo {
	mi := mapInfo{conduits: len(m.Conduits), isps: append([]string(nil), mx.ISPs...)}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		mi.nodes = append(mi.nodes, n.Key())
		mi.lat = append(mi.lat, n.Loc.Lat)
		mi.lon = append(mi.lon, n.Loc.Lon)
	}
	return mi
}

// encoded is one scenario with its request body and the content hash
// a correct response must carry.
type encoded struct {
	sc   scenario.Scenario
	body []byte
	hash string
}

// scenarioGen draws the what-if mix: 40% regional disasters of
// 50-300 km centred near a city, 30% explicit cuts of 1-8 conduits,
// 15% removal of 1-3 providers plus 1-8 most-shared cuts, and 15% one
// or two open-access builds between distinct cities.
type scenarioGen struct {
	rng *rand.Rand
	m   mapInfo
}

func round(v, unit float64) float64 { return math.Round(v/unit) * unit }

// kind picks the mix share; draw fills one scenario of that kind.
func (g *scenarioGen) kind() int {
	switch p := g.rng.Float64(); {
	case p < 0.40:
		return 0
	case p < 0.70:
		return 1
	case p < 0.85:
		return 2
	default:
		return 3
	}
}

func (g *scenarioGen) draw(kind int) scenario.Scenario {
	r := g.rng
	switch kind {
	case 0:
		i := r.Intn(len(g.m.nodes))
		return scenario.Scenario{Regions: []scenario.Region{{
			Lat:      round(g.m.lat[i]+r.Float64()-0.5, 1e-4),
			Lon:      round(g.m.lon[i]+r.Float64()-0.5, 1e-4),
			RadiusKm: round(50+250*r.Float64(), 0.1),
		}}}
	case 1:
		cuts := make([]fiber.ConduitID, 1+r.Intn(8))
		for i := range cuts {
			cuts[i] = fiber.ConduitID(r.Intn(g.m.conduits))
		}
		return scenario.Scenario{CutConduits: cuts}
	case 2:
		perm := r.Perm(len(g.m.isps))[:1+r.Intn(3)]
		isps := make([]string, len(perm))
		for i, k := range perm {
			isps[i] = g.m.isps[k]
		}
		return scenario.Scenario{RemoveISPs: isps, CutMostShared: 1 + r.Intn(8)}
	default:
		adds := make([]scenario.Addition, 1+r.Intn(2))
		for i := range adds {
			a := r.Intn(len(g.m.nodes))
			b := r.Intn(len(g.m.nodes) - 1)
			if b >= a {
				b++ // distinct endpoints by construction
			}
			adds[i] = scenario.Addition{A: g.m.nodes[a], B: g.m.nodes[b]}
		}
		return scenario.Scenario{Additions: adds}
	}
}

// distinctScenarios draws n scenarios with pairwise distinct content
// hashes and encodes them. A repeat is redrawn within its kind, so the
// mix shares hold.
func distinctScenarios(rng *rand.Rand, m mapInfo, n int) ([]encoded, error) {
	g := &scenarioGen{rng: rng, m: m}
	seen := make(map[string]bool, n)
	out := make([]encoded, 0, n)
	for len(out) < n {
		kind := g.kind()
		for attempt := 0; ; attempt++ {
			if attempt == 1000 {
				return nil, fmt.Errorf("generator: no fresh scenario of kind %d in 1000 draws", kind)
			}
			sc := g.draw(kind)
			res, err := scenario.Resolve(sc)
			if err != nil {
				return nil, fmt.Errorf("generator produced an invalid scenario: %w", err)
			}
			h := res.Hash()
			if seen[h] {
				continue
			}
			seen[h] = true
			body, err := json.Marshal(sc)
			if err != nil {
				return nil, err
			}
			out = append(out, encoded{sc: sc, body: body, hash: h})
			break
		}
	}
	return out, nil
}

// hotOp is one dashboard read of the whatif-hot mix.
type hotOp struct {
	kind  uint8 // opScenario, opPage, opRevalidate, opList
	index int   // hot-set scenario or latency page (1-based)
}

const (
	opScenario = iota
	opPage
	opRevalidate
	opList
)

var opNames = [...]string{"scenario", "latency_page", "revalidate", "scenarios_list"}

// hotOps draws one client's dashboard mix: 60% scenario POSTs picked
// Zipf-wise from the hot set, 20% latency pages, 10% If-None-Match
// revalidations of a page, 10% scenario listings.
type hotOps struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	pages int
}

func newHotOps(seed int64, client, hotSet, pages int) *hotOps {
	r := newRand(seed, streamHotOps, client)
	return &hotOps{rng: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(hotSet-1)), pages: pages}
}

func (h *hotOps) next() hotOp {
	switch p := h.rng.Float64(); {
	case p < 0.60:
		return hotOp{kind: opScenario, index: int(h.zipf.Uint64())}
	case p < 0.80:
		return hotOp{kind: opPage, index: 1 + h.rng.Intn(h.pages)}
	case p < 0.90:
		return hotOp{kind: opRevalidate, index: 1 + h.rng.Intn(h.pages)}
	default:
		return hotOp{kind: opList}
	}
}

// gridSpecs draws n sweep specs at cellKm 300 with two radii each, one
// within 5 km of 100 km and one within 5 km of 200 km at 0.1-km steps,
// every ladder distinct. The narrow jitter keeps each job's work nearly
// equal, so the seed changes which specs are sent, not how heavy they
// are. CullKm is pinned to 300 so each spec plans the same lattice
// centres and the cell count stays constant across ladders.
func gridSpecs(seed int64, n int) []scenario.GridSpec {
	r := newRand(seed, streamGrid, 0)
	seen := make(map[[2]float64]bool, n)
	out := make([]scenario.GridSpec, 0, n)
	for len(out) < n {
		ladder := [2]float64{95 + float64(r.Intn(100))/10, 195 + float64(r.Intn(100))/10}
		if seen[ladder] {
			continue
		}
		seen[ladder] = true
		out = append(out, scenario.GridSpec{CellKm: 300, RadiiKm: ladder[:], CullKm: 300})
	}
	return out
}

// sampleIndexes picks k distinct indexes below n, seed-drawn.
func sampleIndexes(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	return newRand(seed, streamSample, n).Perm(n)[:k]
}
