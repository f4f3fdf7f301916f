// Package latency implements the all-pairs city-to-city latency
// atlas: one source-batched single-source shortest-path (SSSP) sweep
// replaces the per-pair path queries the §5.3 study grew up on. The
// kernel runs one full Dijkstra per source node — not one per pair —
// chunked over the worker pool with one reusable graph.Workspace per
// worker, and writes every result into a single flat []float64
// distance matrix. "Dissecting Latency in the Internet's Fiber
// Infrastructure" (PAPERS.md) is the blueprint for what the matrix
// feeds: per-pair inflation over the geodesic c-latency bound, and
// overlay relay placement scored directly off matrix rows.
package latency

import (
	"context"

	"intertubes/internal/graph"
	"intertubes/internal/par"
)

// Matrix is a batch of SSSP rows over one graph: row i holds the
// shortest path weight from Sources[i] to every vertex, +Inf where
// unreachable. The backing store is one flat row-major []float64 in
// source-major order — Dist[i*Cols+v] is source i's distance to
// vertex v — and that layout is the determinism contract: each row is
// written by exactly one Dijkstra run, so a completed build is
// bit-identical at any worker count.
type Matrix struct {
	// Sources lists the row sources in ascending vertex order.
	Sources []int32
	// Cols is the number of vertices (columns per row).
	Cols int
	// Dist is the flat row-major distance matrix, len(Sources)*Cols.
	Dist []float64
}

// Row returns source i's distance row. The slice aliases the matrix
// and must be treated as read-only.
func (m *Matrix) Row(i int) []float64 { return m.Dist[i*m.Cols : (i+1)*m.Cols] }

// BuildMatrix runs one full Dijkstra per source over g under wf. Each
// source's row compute is the warm-path kernel: with a grown
// workspace and the weight table materialized, it allocates nothing
// (pinned by an AllocsPerRun guard).
func BuildMatrix(ctx context.Context, g *graph.Graph, wf graph.WeightFunc, sources []int32, workers int) (*Matrix, error) {
	n := g.NumVertices()
	mx := &Matrix{Sources: sources, Cols: n, Dist: make([]float64, len(sources)*n)}
	err := par.RunWith(ctx, len(sources), workers, graph.NewWorkspace, func(i int, ws *graph.Workspace) {
		g.ShortestDistances(ws, int(sources[i]), wf, mx.Row(i))
	})
	if err != nil {
		return nil, err
	}
	return mx, nil
}
