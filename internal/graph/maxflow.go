package graph

import "math"

// maxflow.go grows the kernel from global min-cut to s-t maximum
// flow. The capacity layer asks "how many Gbps of this demand survive"
// for every scenario evaluation in a sweep, so the kernel follows the
// same discipline as GlobalMinCut: the base CSR stays shared and
// immutable, the query's per-edge capacities arrive as a flat table,
// overlay-only conduits ride along as extra edges, and every byte of
// scratch lives in the Workspace — zero allocations once warm.
//
// The algorithm is Dinic's. An undirected edge of capacity c becomes a
// twin arc pair (u→v and v→u, capacity c each) that act as each
// other's residuals — the standard undirected reduction. Arcs are laid
// out per tail vertex in CSR order, each carrying its head, its
// residual capacity and its twin's index, so every scan reads arcs in
// place. Levels are residual distances to dst, from a reverse BFS that
// stops as soon as src is labeled; the blocking-flow DFS only steps to
// a vertex one closer to dst, so it never enters a vertex that cannot
// reach dst in the current phase. A flow limit ends the phase loop as
// soon as the flow reaches it, so a caller that only needs
// min(max flow, demand) never pays for the rest.
//
// Exactness: with integral capacities below 2^53 every residual,
// bottleneck and running total is an exact integer in float64, so
// every augmenting order returns the same value — the max flow, or the
// limit once the flow reaches it. The capacity layer's capacities are
// whole numbers of wavelengths (fiber/capacity.go), which is what
// makes its results independent of arc order and hosting graph.
//
// After a call the residual arcs still hold the flow and, when the
// limit did not bind, a minimum cut: FlowOn and MinCutSide read them
// back, so a caller can keep a demand's flow and cut as a witness of
// its answer without a second search.

// flowArc is one residual arc: head vertex, twin arc index, and
// residual capacity.
type flowArc struct {
	to   int32
	twin int32
	cap  float64
}

// maxflowScratch is the reusable state of MaxFlow, owned by a
// Workspace and grown lazily.
type maxflowScratch struct {
	off   []int32   // CSR offsets per tail vertex into arcs
	arcs  []flowArc // arcs grouped by tail vertex
	cur   []int32   // staging cursor, then DFS arc cursor per vertex
	level []int32   // residual distance to dst; -1 unlabeled or pruned
	queue []int32
	path  []int32 // DFS stack of arc indices from src
	// edgeArc[i] is the U→V arc of staged edge i (base edges, then
	// extras), or -1 when the edge is not usable; empty after a call
	// that staged nothing.
	edgeArc []int32
	// cut reports whether the last call ended on a failed level search,
	// so that level holds a minimum cut.
	cut bool
}

// maxflow returns the workspace's max-flow scratch, allocating it on
// first use.
func (w *Workspace) maxflow() *maxflowScratch {
	if w.mf == nil {
		w.mf = &maxflowScratch{}
	}
	return w.mf
}

// MaxFlow returns min(max s-t flow, limit) of the graph under the
// given edge capacities, with all scratch in ws:
//
//   - caps[eid] is the capacity of base edge eid; a zero, negative,
//     +Inf, or NaN capacity excludes the edge, matching
//     GlobalMinCut's usable-edge rule (nil caps uses the graph's
//     default weight table);
//   - extra lists overlay edges absent from the base graph (new
//     conduit builds); their Weight fields are their capacities, under
//     the same exclusion rule;
//   - limit caps the answer: the search stops as soon as the flow
//     reaches it. math.Inf(1) means uncapped; a limit that is not
//     positive returns 0.
//
// Edges are undirected: capacity c may be consumed in either
// direction (but not both at once beyond c). Self-loops carry no
// flow. src == dst, or either endpoint out of range, returns 0.
//
// With integral capacities below 2^53 the result is exact and
// independent of arc order.
func (g *Graph) MaxFlow(ws *Workspace, src, dst int, caps []float64, extra []Edge, limit float64) float64 {
	n := g.n
	mf := ws.maxflow()
	mf.cut = false
	if src == dst || src < 0 || src >= n || dst < 0 || dst >= n || !(limit > 0) {
		mf.edgeArc = mf.edgeArc[:0]
		return 0
	}
	if caps == nil {
		caps = g.topoView().defWeights
	}
	mf.stage(g, caps, extra)

	s, t := int32(src), int32(dst)
	total := 0.0
	for mf.levels(s, t) {
		if total = mf.blockingFlow(s, t, total, limit); total >= limit {
			return limit
		}
	}
	mf.cut = true
	return total
}

// FlowOn fills flow with the flow the last MaxFlow call on w left in
// its residual arcs: flow[i] for base edge i, then flow[NumEdges()+j]
// for extra[j], positive when it runs from the edge's U to its V and
// negative the other way. Its magnitude never exceeds the edge's
// capacity, an excluded edge carries 0, and the net flow out of src
// equals the returned value, or reaches the limit when that bound.
// A flow sized to the base edges alone skips the extras; entries past
// the staged edges, and every entry after a call that staged nothing,
// read 0.
func (w *Workspace) FlowOn(flow []float64) {
	mf := w.maxflow()
	for i := range flow {
		flow[i] = 0
		if i < len(mf.edgeArc) && mf.edgeArc[i] >= 0 {
			// Twin residuals start at c each and move by f in opposite
			// directions: c-f on U→V, c+f on V→U.
			a := &mf.arcs[mf.edgeArc[i]]
			flow[i] = (mf.arcs[a.twin].cap - a.cap) / 2
		}
	}
}

// MinCutSide reports whether the last MaxFlow call on w returned below
// its limit. If it did, side[v] (len(side) must cover every vertex) is
// set for exactly the vertices that cannot reach dst in the final
// residual network: the source side of a minimum s-t cut, holding src
// but not dst, whose crossing edges carry exactly the returned flow.
// Otherwise side is left as it was.
func (w *Workspace) MinCutSide(side []bool) bool {
	mf := w.maxflow()
	if !mf.cut {
		return false
	}
	for v, l := range mf.level {
		side[v] = l < 0
	}
	return true
}

// usableCap reports whether an edge carries flow: distinct in-range
// endpoints and a positive finite capacity.
func usableCap(u, v, n int, c float64) bool {
	if c <= 0 || math.IsInf(c, 1) || math.IsNaN(c) {
		return false
	}
	return u != v && u >= 0 && u < n && v >= 0 && v < n
}

// stage lays every usable edge's twin arc pair into per-tail CSR rows
// with a counting sort: base edges ascending by id, then extras.
func (mf *maxflowScratch) stage(g *Graph, caps []float64, extra []Edge) {
	n := g.n
	grow := func(p []int32, n int) []int32 {
		if cap(p) < n {
			return make([]int32, n)
		}
		return p[:n]
	}
	mf.off = grow(mf.off, n+1)
	mf.cur = grow(mf.cur, n)
	mf.level = grow(mf.level, n)
	mf.queue = grow(mf.queue, n)
	mf.path = grow(mf.path, n)
	mf.edgeArc = grow(mf.edgeArc, len(g.edges)+len(extra))
	off, cur := mf.off, mf.cur

	// Pass 1: count usable arcs per tail vertex.
	for i := range off {
		off[i] = 0
	}
	for eid := range g.edges {
		e := &g.edges[eid]
		if usableCap(e.U, e.V, n, caps[eid]) {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for i := range extra {
		e := &extra[i]
		if usableCap(e.U, e.V, n, e.Weight) {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	na := int(off[n])
	if cap(mf.arcs) < na {
		mf.arcs = make([]flowArc, na)
	}
	arcs := mf.arcs[:na]
	mf.arcs = arcs

	// Pass 2: place each twin pair in its tails' rows.
	copy(cur, off[:n])
	add := func(i, u, v int, c float64) {
		a, b := cur[u], cur[v]
		cur[u]++
		cur[v]++
		arcs[a] = flowArc{to: int32(v), twin: b, cap: c}
		arcs[b] = flowArc{to: int32(u), twin: a, cap: c}
		mf.edgeArc[i] = a
	}
	for eid := range g.edges {
		e := &g.edges[eid]
		mf.edgeArc[eid] = -1
		if usableCap(e.U, e.V, n, caps[eid]) {
			add(eid, e.U, e.V, caps[eid])
		}
	}
	for i := range extra {
		e := &extra[i]
		mf.edgeArc[len(g.edges)+i] = -1
		if usableCap(e.U, e.V, n, e.Weight) {
			add(len(g.edges)+i, e.U, e.V, e.Weight)
		}
	}
}

// levels labels vertices with their residual distance to t by a
// reverse BFS, stopping as soon as s is labeled. It reports whether s
// can still reach t. Vertices left unlabeled keep level -1; after a
// failed search they are exactly the source side of a minimum cut.
func (mf *maxflowScratch) levels(s, t int32) bool {
	off, arcs, level, queue := mf.off, mf.arcs, mf.level, mf.queue
	for i := range level {
		level[i] = -1
	}
	level[t] = 0
	queue[0] = t
	qh, qt := 0, 1
	for qh < qt {
		v := queue[qh]
		qh++
		lv := level[v] + 1
		for c, end := off[v], off[v+1]; c < end; c++ {
			a := &arcs[c]
			u := a.to
			// a runs v→u; its twin u→v is the arc that brings u closer.
			if level[u] >= 0 || arcs[a.twin].cap <= 0 {
				continue
			}
			level[u] = lv
			if u == s {
				return true
			}
			queue[qt] = u
			qt++
		}
	}
	return false
}

// blockingFlow saturates the current level graph from s to t with an
// iterative DFS over per-vertex arc cursors, adding each augmentation
// to total. It returns early once total reaches limit. A vertex that
// dead-ends is pruned by clearing its level; a saturated path arc
// fails the residual check on revisit, so cursors never rewind within
// a phase.
func (mf *maxflowScratch) blockingFlow(s, t int32, total, limit float64) float64 {
	off, arcs, level, cur, path := mf.off, mf.arcs, mf.level, mf.cur, mf.path
	copy(cur, off[:len(cur)])
	sp := 0
	v := s
	for {
		if v == t {
			b := math.Inf(1)
			for _, c := range path[:sp] {
				if r := arcs[c].cap; r < b {
					b = r
				}
			}
			cutAt := sp
			for i, c := range path[:sp] {
				a := &arcs[c]
				a.cap -= b
				arcs[a.twin].cap += b
				if a.cap <= 0 && i < cutAt {
					cutAt = i
				}
			}
			if total += b; total >= limit {
				return total
			}
			// Resume from the tail of the first saturated arc.
			sp = cutAt
			if sp == 0 {
				v = s
			} else {
				v = arcs[path[sp-1]].to
			}
			continue
		}
		want := level[v] - 1
		c, end := cur[v], off[v+1]
		for ; c < end; c++ {
			if a := &arcs[c]; a.cap > 0 && level[a.to] == want {
				break
			}
		}
		cur[v] = c
		if c < end {
			path[sp] = c
			sp++
			v = arcs[c].to
			continue
		}
		level[v] = -1
		if sp == 0 {
			return total
		}
		sp--
		v = arcs[arcs[path[sp]].twin].to
	}
}
