package graph

import (
	"math"
)

// centrality.go implements Brandes' algorithm for edge betweenness
// centrality under arbitrary edge weights. The resilience analyses
// use it to find the conduits that carry the most shortest paths —
// the backhoe targets.

// EdgeBetweenness returns, for every edge, the number of shortest
// paths between vertex pairs that traverse it (summed over ordered
// pairs and split evenly among equal-cost shortest paths), writing
// scores into dst (resized as needed; nil allocates). Edges excluded
// by wf (+Inf) get zero. Runs Brandes with Dijkstra in O(V * E log V).
// The weight table is materialized once for all sources, and the per-
// source scratch (settle order, path counts, dependency accumulators,
// predecessor lists) is epoch-stamped workspace state — re-arming it
// between sources costs O(touched), not O(V).
func (g *Graph) EdgeBetweenness(ws *Workspace, wf WeightFunc, dst []float64) []float64 {
	n := g.n
	t := g.topoView()
	weights := ws.materialize(g, t, wf)
	if cap(dst) < len(g.edges) {
		dst = make([]float64, len(g.edges))
	}
	dst = dst[:len(g.edges)]
	for i := range dst {
		dst[i] = 0
	}

	for s := 0; s < n; s++ {
		ws.beginBrandes(n)
		sv := int32(s)
		ws.stamp[sv] = ws.epoch
		ws.dist[sv] = 0
		ws.sigma[sv] = 1
		ws.delta[sv] = 0
		ws.preds[sv] = ws.preds[sv][:0]
		h := &ws.heap
		h.push(pqItem{v: sv, dist: 0})
		for h.len() > 0 {
			it := h.pop()
			v := it.v
			if it.dist > ws.dist[v] {
				continue
			}
			ws.order = append(ws.order, v)
			for _, he := range t.half[t.off[v]:t.off[v+1]] {
				w := weights[he.edge]
				if math.IsInf(w, 1) {
					continue
				}
				nd := ws.dist[v] + w
				to := he.to
				if ws.stamp[to] != ws.epoch {
					ws.stamp[to] = ws.epoch
					ws.dist[to] = nd
					ws.sigma[to] = ws.sigma[v]
					ws.delta[to] = 0
					ws.preds[to] = append(ws.preds[to][:0], halfEdge{to: v, edge: he.edge})
					h.push(pqItem{v: to, dist: nd})
					continue
				}
				switch {
				case nd < ws.dist[to]-1e-12:
					ws.dist[to] = nd
					ws.sigma[to] = ws.sigma[v]
					ws.preds[to] = append(ws.preds[to][:0], halfEdge{to: v, edge: he.edge})
					h.push(pqItem{v: to, dist: nd})
				case math.Abs(nd-ws.dist[to]) <= 1e-12:
					ws.sigma[to] += ws.sigma[v]
					ws.preds[to] = append(ws.preds[to], halfEdge{to: v, edge: he.edge})
				}
			}
		}
		// Accumulate dependencies in reverse settle order.
		for i := len(ws.order) - 1; i > 0; i-- {
			w := ws.order[i]
			for _, ph := range ws.preds[w] {
				v := ph.to
				c := ws.sigma[v] / ws.sigma[w] * (1 + ws.delta[w])
				dst[ph.edge] += c
				ws.delta[v] += c
			}
		}
	}
	return dst
}
