package latency

import (
	"context"
	"math"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/memo"
)

// Atlas is the all-pairs latency atlas over a fiber map's major
// cities: one matrix row per city holding the shortest lit-fiber
// distance to every map node. Rows are compared against the geodesic
// c-in-fiber bound to give the per-pair latency inflation the
// "Dissecting Latency" extension studies. They are the best existing
// paths of the §5.3 study (mitigate.LatencyStudy), which also runs its
// k-shortest paths over the atlas's graph and weights, and the scoring
// substrate for overlay relay placement (mitigate.PlaceRelays).
//
// An Atlas is immutable once built and safe for concurrent readers;
// the derived pair table is built on first use and kept.
type Atlas struct {
	m      *fiber.Map
	g      *graph.Graph
	lit    graph.WeightFunc
	mx     *Matrix
	rowIdx []int32 // vertex -> row index, -1 when not a source

	pairs memo.Value[[]PairLatency]
}

// PairLatency is one connected city pair of the atlas: the one-way
// fiber-path propagation delay, the geodesic c-latency lower bound,
// and their ratio (the latency inflation factor).
type PairLatency struct {
	A, B      fiber.NodeID
	FiberMs   float64 // shortest lit-fiber path delay
	GeoMs     float64 // great-circle c-in-fiber bound
	Inflation float64 // FiberMs / GeoMs (1 for co-located pairs)
}

// Options tunes an atlas build.
type Options struct {
	// MinPopulation restricts sources to cities at or above this
	// population — the paper's long-haul definition uses 100,000 (the
	// default). The §5.3 study (mitigate.LatencyStudy) takes its city
	// pairs from these sources.
	MinPopulation int
	// Workers bounds the worker pool for the source sweep (<= 0 means
	// all CPUs). The atlas is bit-identical for any value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MinPopulation == 0 {
		o.MinPopulation = 100000
	}
	return o
}

// sourceNodes lists the major-city map nodes in ascending id order —
// the matrix's row order, and therefore part of the determinism
// contract.
func sourceNodes(m *fiber.Map, minPop int) []int32 {
	var out []int32
	for i := range m.Nodes {
		if m.Nodes[i].Population >= minPop {
			out = append(out, int32(i))
		}
	}
	return out
}

// Build computes the atlas over v, a fiber.View whose base map is m
// (node metadata — names, locations, populations — never changes
// under a view; the baseline passes the map as its own view): one
// Dijkstra per major city over the view's lit-conduit graph.
func Build(ctx context.Context, m *fiber.Map, v fiber.View, opts Options) (*Atlas, error) {
	opts = opts.withDefaults()
	g, lit := fiber.Graph(v), fiber.LitWeight(v)
	srcs := sourceNodes(m, opts.MinPopulation)
	mx, err := BuildMatrix(ctx, g, lit, srcs, opts.Workers)
	if err != nil {
		return nil, err
	}
	rowIdx := make([]int32, g.NumVertices())
	for i := range rowIdx {
		rowIdx[i] = -1
	}
	for i, s := range srcs {
		rowIdx[s] = int32(i)
	}
	return &Atlas{m: m, g: g, lit: lit, mx: mx, rowIdx: rowIdx}, nil
}

// Map returns the base map whose node metadata the atlas reads.
func (a *Atlas) Map() *fiber.Map { return a.m }

// Graph returns the conduit multigraph the atlas was built over (edge
// id == conduit id of the view, overlay-new conduits included).
// Read-only.
func (a *Atlas) Graph() *graph.Graph { return a.g }

// LitWeight returns the lit-conduit weights the rows were computed
// under: conduit length, +Inf for a conduit without tenants.
func (a *Atlas) LitWeight() graph.WeightFunc { return a.lit }

// NumSources returns the number of matrix rows (major cities).
func (a *Atlas) NumSources() int { return len(a.mx.Sources) }

// Source returns the map node id of row i.
func (a *Atlas) Source(i int) fiber.NodeID { return fiber.NodeID(a.mx.Sources[i]) }

// RowIndex returns id's row index, or -1 when it is not a source.
func (a *Atlas) RowIndex(id fiber.NodeID) int {
	if int(id) < 0 || int(id) >= len(a.rowIdx) {
		return -1
	}
	return int(a.rowIdx[id])
}

// Row returns row i's distances in km, indexed by map node id (+Inf
// where unreachable). Read-only: the slice aliases the matrix.
func (a *Atlas) Row(i int) []float64 { return a.mx.Row(i) }

// DistKm returns the shortest lit-fiber distance from row source i to
// map node v (+Inf when unreachable).
func (a *Atlas) DistKm(i int, v fiber.NodeID) float64 { return a.mx.Dist[i*a.mx.Cols+int(v)] }

// Pairs returns the connected city pairs of the atlas in source-major
// order (row index i ascending, then j > i) — the stable ordering the
// paginated API exposes. Disconnected pairs are dropped; every field
// of a returned pair is finite. The table is computed once and
// memoized.
func (a *Atlas) Pairs() []PairLatency {
	pairs, _ := a.pairs.Get(context.TODO(), a.computePairs) // cannot fail
	return pairs
}

func (a *Atlas) computePairs(context.Context) ([]PairLatency, error) {
	out := make([]PairLatency, 0, a.NumSources()*(a.NumSources()-1)/2)
	for i := 0; i < a.NumSources(); i++ {
		row := a.mx.Row(i)
		la := a.m.Node(a.Source(i)).Loc
		for j := i + 1; j < a.NumSources(); j++ {
			d := row[a.mx.Sources[j]]
			if math.IsInf(d, 0) {
				continue // no lit path
			}
			out = append(out, pairFor(a.Source(i), a.Source(j), d, la.DistanceKm(a.m.Node(a.Source(j)).Loc)))
		}
	}
	return out, nil
}

// pairFor derives one pair row from a fiber distance and a geodesic
// distance; shared by the batched builder and the per-pair reference
// in the tests, so the differential suite compares exactly the kernel
// outputs.
func pairFor(na, nb fiber.NodeID, fiberKm, geoKm float64) PairLatency {
	pl := PairLatency{
		A: na, B: nb,
		FiberMs: geo.FiberLatencyMs(fiberKm),
		GeoMs:   geo.FiberLatencyMs(geoKm),
	}
	if pl.GeoMs > 0 {
		pl.Inflation = pl.FiberMs / pl.GeoMs
	} else {
		// Co-located pair: fiber cannot beat a zero bound; by
		// convention the pair is uninflated rather than NaN.
		pl.Inflation = 1
	}
	return pl
}
