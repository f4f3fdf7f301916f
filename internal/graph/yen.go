package graph

import (
	"math"
	"sort"
)

// KShortestPaths returns up to k loopless minimum-weight paths from
// src to dst under wf, in non-decreasing weight order, using Yen's
// algorithm. Fewer than k paths are returned if the graph does not
// contain that many distinct loopless paths.
//
// Spur exclusions (the edges and root nodes Yen bans per deviation)
// are expressed as +Inf masks written in place onto a scratch copy of
// the materialized weight table, rebuilt by a flat copy each spur
// iteration — no per-spur maps, no closure dispatch in the inner
// Dijkstra. Banning a node masks every incident edge via the CSR
// adjacency, which excludes exactly the edges the reference
// formulation rejects by endpoint test.
func (g *Graph) KShortestPaths(ws *Workspace, src, dst, k int, wf WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return nil
	}
	t := g.topoView()
	base := ws.materialize(g, t, wf)
	g.dijkstra(ws, t, base, int32(src), int32(dst))
	if !ws.visited(int32(dst)) {
		return nil
	}
	first := g.tracePath(ws, src, dst)

	paths := []Path{first}
	// Candidate set, kept sorted by weight. Small k keeps this cheap.
	var candidates []Path

	spurW := ws.spurTable(len(g.edges))
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Deviate at every spur node of the previous path.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]

			copy(spurW, base)
			// Ban root nodes (except the spur) to keep paths loopless:
			// all of a banned node's incident edges are masked.
			for _, v := range rootNodes[:len(rootNodes)-1] {
				for _, he := range t.neighbors(int32(v)) {
					spurW[he.edge] = math.Inf(1)
				}
			}
			// Ban edges that would recreate an already-found path with
			// the same root.
			for _, p := range paths {
				if sameIntPrefix(p.Nodes, rootNodes) && len(p.Edges) > i {
					spurW[p.Edges[i]] = math.Inf(1)
				}
			}
			for _, p := range candidates {
				if sameIntPrefix(p.Nodes, rootNodes) && len(p.Edges) > i {
					spurW[p.Edges[i]] = math.Inf(1)
				}
			}

			g.dijkstra(ws, t, spurW, int32(spur), int32(dst))
			if !ws.visited(int32(dst)) {
				continue
			}
			spurPath := g.tracePath(ws, spur, dst)
			total := joinPaths(rootNodes, rootEdges, spurPath, base)
			if pathKnown(paths, total) || pathKnown(candidates, total) {
				continue
			}
			candidates = append(candidates, total)
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			return candidates[a].Weight < candidates[b].Weight
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func sameIntPrefix(full, prefix []int) bool {
	if len(full) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if full[i] != v {
			return false
		}
	}
	return true
}

// joinPaths splices the root onto the spur path, re-deriving the total
// weight from the base weight table (the spur Dijkstra ran over masked
// weights).
func joinPaths(rootNodes, rootEdges []int, spur Path, base []float64) Path {
	nodes := make([]int, 0, len(rootNodes)+len(spur.Nodes)-1)
	nodes = append(nodes, rootNodes...)
	nodes = append(nodes, spur.Nodes[1:]...)
	edges := make([]int, 0, len(rootEdges)+len(spur.Edges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spur.Edges...)
	var w float64
	for _, eid := range edges {
		w += base[eid]
	}
	return Path{Nodes: nodes, Edges: edges, Weight: w}
}

func pathKnown(set []Path, p Path) bool {
	for _, q := range set {
		if equalIntSlices(q.Edges, p.Edges) {
			return true
		}
	}
	return false
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
