package graph

import (
	"context"
	"math"
)

// maxflow.go grows the kernel from global min-cut to s-t maximum
// flow. The capacity layer asks "how many Gbps of this demand survive"
// for every scenario evaluation in a sweep, so the kernel follows the
// same discipline as GlobalMinCut: the base CSR stays shared and
// immutable, the query's per-edge capacities arrive as a flat table,
// overlay-only conduits ride along as extra edges, and every byte of
// scratch lives in the Workspace — zero allocations once warm.
//
// The algorithm is Dinic's, run on the series reduction of the
// network. Half the conduit map's vertices only pass flow through:
// they have exactly two incident edges, so a maximal chain of them
// carries one flow value end to end, bounded by its smallest capacity.
// The chains depend on the graph alone and are built once per graph
// (series, memoized next to the CSR topology). A call splits them only
// at its own endpoints — src, dst and the extras' ends — and stages
// each resulting segment as one undirected edge at its smallest
// capacity, so a level search labels only branch and forced vertices,
// not every vertex on every chain.
//
// An undirected edge of capacity c becomes a twin arc pair (u→v and
// v→u, capacity c each) that act as each other's residuals — the
// standard undirected reduction. Arcs are laid out per tail vertex in
// CSR order, each carrying its head, its residual capacity and its
// twin's index, so every scan reads arcs in place. Levels are residual
// distances to dst, from a reverse BFS that stops as soon as src is
// labeled; the blocking-flow DFS only steps to a vertex one closer to
// dst, so it never enters a vertex that cannot reach dst in the
// current phase. A flow limit ends the phase loop as soon as the flow
// reaches it, so a caller that only needs min(max flow, demand) never
// pays for the rest.
//
// Exactness: with integral capacities below 2^53 every residual,
// bottleneck and running total is an exact integer in float64, so
// every augmenting order returns the same value — the max flow, or the
// limit once the flow reaches it. The capacity layer's capacities are
// whole numbers of wavelengths (fiber/capacity.go), which is what
// makes its results independent of arc order and hosting graph.
//
// After a call the residual arcs still hold the flow and, when the
// limit did not bind, a minimum cut: FlowOn and MinCutSide expand them
// back onto the base edges and vertices, so a caller can keep a
// demand's flow and cut as a witness of its answer without a second
// search. Each edge of a segment carries the segment's flow; a vertex
// inside a segment reaches dst iff it reaches a labeled end of the
// segment over edges with residual capacity toward that end.

// flowArc is one residual arc: head vertex, twin arc index, and
// residual capacity.
type flowArc struct {
	to   int32
	twin int32
	cap  float64
}

// series is the series decomposition of a graph's edges. A vertex is
// interior when it has exactly two incident half-edges and neither is
// a self-loop. Every edge lies on exactly one chain: a walk from a
// branch (non-interior) vertex through interior vertices to a branch
// vertex or, for a cycle of interior vertices, from its lowest vertex
// around back to it. Built once per graph and never modified.
type series struct {
	// Chain c walks positions off[c] to off[c+1]-1 from vertex
	// start[c].
	off   []int32
	start []int32
	// walk[k] is the id of the edge walked at position k, shifted left
	// one bit, with the low bit set when the walk runs it from V to U;
	// head[k] is the vertex the walk reaches over it.
	walk []int32
	head []int32
	// inside[v] is the chain that passes through v, or -1 when v only
	// starts and ends chains.
	inside []int32
}

// seriesView returns the graph's series decomposition, building it
// on first use. Safe for concurrent use.
func (g *Graph) seriesView() *series {
	sr, _ := g.chains.Get(context.TODO(), func(context.Context) (*series, error) {
		return buildSeries(g.n, g.edges, g.topoView()), nil
	}) // the build reads no context and cannot fail
	return sr
}

// buildSeries walks every chain once: first from each branch vertex in
// ascending order along its unwalked half-edges, then around each
// cycle of interior vertices from its lowest vertex.
func buildSeries(n int, edges []Edge, t *topology) *series {
	interior := func(v int32) bool {
		hs := t.neighbors(v)
		return len(hs) == 2 && hs[0].to != v && hs[1].to != v
	}
	sr := &series{
		off:  make([]int32, 1, len(edges)+1),
		walk: make([]int32, 0, len(edges)),
		head: make([]int32, 0, len(edges)),
	}
	walked := make([]bool, len(edges))
	chain := func(v int32, h halfEdge) {
		sr.start = append(sr.start, v)
		at := v
		for {
			walked[h.edge] = true
			w := h.edge << 1
			if int32(edges[h.edge].U) != at {
				w |= 1
			}
			sr.walk = append(sr.walk, w)
			sr.head = append(sr.head, h.to)
			at = h.to
			if at == v || !interior(at) {
				break
			}
			// Leave an interior vertex by its other half-edge.
			if hs := t.neighbors(at); hs[0].edge == h.edge {
				h = hs[1]
			} else {
				h = hs[0]
			}
		}
		sr.off = append(sr.off, int32(len(sr.walk)))
	}
	for v := int32(0); v < int32(n); v++ {
		if !interior(v) {
			for _, h := range t.neighbors(v) {
				if !walked[h.edge] {
					chain(v, h)
				}
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if hs := t.neighbors(v); interior(v) && !walked[hs[0].edge] {
			chain(v, hs[0])
		}
	}
	sr.inside = make([]int32, n)
	for v := range sr.inside {
		sr.inside[v] = -1
	}
	for c := range sr.start {
		for _, v := range sr.head[sr.off[c] : sr.off[c+1]-1] {
			sr.inside[v] = int32(c)
		}
	}
	return sr
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
	// edgeArc[i] is the arc of staged edge i (base edges, then
	// extras) that runs from its U toward its V, or -1 when the edge
	// carries no flow; empty after a call that staged nothing.
	edgeArc []int32
	// The last call's reduction, which MinCutSide expands: the graph's
	// chains; each walk position's capacity, 0 when not usable; the
	// forced vertices (src, dst and the usable extras' endpoints) and
	// the chains they pass through, marked with the call's epoch; and
	// each unsplit chain's staged capacity, 0 when it stages nothing.
	sr       *series
	capAt    []float64
	chainCap []float64
	mark     []uint32 // per vertex
	split    []uint32 // per chain
	epoch    uint32
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
	ws.mfCalls++
	if src == dst || src < 0 || src >= n || dst < 0 || dst >= n || !(limit > 0) {
		mf.edgeArc = mf.edgeArc[:0]
		return 0
	}
	if caps == nil {
		caps = g.topoView().defWeights
	}
	s, t := int32(src), int32(dst)
	mf.stage(g, g.seriesView(), s, t, caps, extra)

	total := 0.0
	for {
		ws.mfSearches++
		if !mf.levels(s, t) {
			break
		}
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
	level, arcs, sr := mf.level, mf.arcs, mf.sr
	for v, l := range level {
		side[v] = l < 0
	}
	// A vertex inside a segment has no arcs, so no search labeled it.
	// It reaches dst iff it reaches a labeled end of its segment: for
	// the segment's flow f from a to b, every edge between it and a
	// needs c+f > 0, or every edge between it and b needs c−f > 0.
	for c := range sr.start {
		mf.segments(c, func(a, b, k0, k1 int32, _ float64) {
			f := 0.0
			if ab := mf.edgeArc[sr.walk[k0]>>1]; ab >= 0 {
				if sr.walk[k0]&1 != 0 {
					ab = arcs[ab].twin
				}
				f = (arcs[arcs[ab].twin].cap - arcs[ab].cap) / 2
			}
			reach := level[a] >= 0
			for k := k0; k < k1-1; k++ {
				reach = reach && mf.capAt[k]+f > 0
				side[sr.head[k]] = !reach
			}
			reach = level[b] >= 0
			for k := k1 - 1; k > k0; k-- {
				reach = reach && mf.capAt[k]-f > 0
				side[sr.head[k-1]] = side[sr.head[k-1]] && !reach
			}
		})
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

// stage lays the call's reduced network into per-tail CSR rows with a
// counting sort: every chain split at the forced vertices into
// segments, each usable segment one twin arc pair at its smallest
// capacity (chains in walk order), then the usable extras. A chain no
// forced vertex splits is one segment, so its pass is a running
// minimum over its edges' capacities.
func (mf *maxflowScratch) stage(g *Graph, sr *series, s, t int32, caps []float64, extra []Edge) {
	n, ne, nw, nc := g.n, len(g.edges), len(sr.walk), len(sr.start)
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
	mf.edgeArc = grow(mf.edgeArc, ne+len(extra))
	if cap(mf.capAt) < nw {
		mf.capAt = make([]float64, nw)
	}
	if cap(mf.chainCap) < nc {
		mf.chainCap = make([]float64, nc)
	}
	// Grown marks start clear: the epoch is never 0.
	if len(mf.mark) < n {
		mf.mark = make([]uint32, n)
	}
	if len(mf.split) < nc {
		mf.split = make([]uint32, nc)
	}
	mf.sr, mf.capAt, mf.chainCap = sr, mf.capAt[:nw], mf.chainCap[:nc]
	if mf.epoch++; mf.epoch == 0 {
		clear(mf.mark)
		clear(mf.split)
		mf.epoch = 1
	}
	off, capAt, chainCap, split, ep := mf.off, mf.capAt, mf.chainCap, mf.split, mf.epoch
	walk, head := sr.walk, sr.head

	force := func(v int32) {
		mf.mark[v] = ep
		if c := sr.inside[v]; c >= 0 {
			split[c] = ep
		}
	}
	force(s)
	force(t)
	for i := range extra {
		if e := &extra[i]; usableCap(e.U, e.V, n, e.Weight) {
			force(int32(e.U))
			force(int32(e.V))
		}
	}

	// Pass 1: read each chain's capacities and count the arcs of its
	// usable segments per tail vertex.
	clear(off)
	for c := 0; c < nc; c++ {
		k0, k1 := sr.off[c], sr.off[c+1]
		m := math.Inf(1)
		for k := k0; k < k1; k++ {
			x := caps[walk[k]>>1]
			if !(x > 0 && x <= math.MaxFloat64) {
				x = 0 // not usable: the chain's runs through it carry nothing
			}
			capAt[k] = x
			if x < m {
				m = x
			}
		}
		if split[c] == ep {
			mf.segments(c, func(a, b, _, _ int32, m float64) {
				if m > 0 {
					off[a+1]++
					off[b+1]++
				}
			})
			continue
		}
		a, b := sr.start[c], head[k1-1]
		if a == b {
			m = 0
		}
		chainCap[c] = m
		if m > 0 {
			off[a+1]++
			off[b+1]++
		}
	}
	for i := range extra {
		if e := &extra[i]; usableCap(e.U, e.V, n, e.Weight) {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	var sum int32
	for v := 1; v <= n; v++ {
		sum += off[v]
		off[v] = sum
	}
	if cap(mf.arcs) < int(sum) {
		mf.arcs = make([]flowArc, sum)
	}
	mf.arcs = mf.arcs[:sum]

	// Pass 2: place the twin pairs in their tails' rows.
	copy(mf.cur, off[:n])
	for c := 0; c < nc; c++ {
		k0, k1 := sr.off[c], sr.off[c+1]
		if split[c] == ep {
			mf.segments(c, mf.place)
		} else {
			mf.place(sr.start[c], head[k1-1], k0, k1, chainCap[c])
		}
	}
	for i := range extra {
		e := &extra[i]
		mf.edgeArc[ne+i] = -1
		if usableCap(e.U, e.V, n, e.Weight) {
			mf.edgeArc[ne+i], _ = mf.addPair(int32(e.U), int32(e.V), e.Weight)
		}
	}
}

// segments calls fn for each segment of chain c in the last call's
// reduction — the runs between the chain's ends and forced vertices —
// with its ends a and b in walk order, its walk positions k0 to k1-1,
// and its capacity m: the smallest on the run, or 0 when the run
// stages nothing (an edge on it is not usable, or its ends coincide).
// It reads capAt, so staging fills that first.
func (mf *maxflowScratch) segments(c int, fn func(a, b, k0, k1 int32, m float64)) {
	sr := mf.sr
	a, k0, end := sr.start[c], sr.off[c], sr.off[c+1]
	m := math.Inf(1)
	for k := k0; k < end; k++ {
		m = min(m, mf.capAt[k])
		b := sr.head[k]
		if k+1 < end && mf.mark[b] != mf.epoch {
			continue
		}
		if a == b {
			m = 0
		}
		fn(a, b, k0, k+1, m)
		a, k0, m = b, k+1, math.Inf(1)
	}
}

// place stages one segment: a twin arc pair between a and b when its
// capacity m is positive, and, for each edge on walk positions k0 to
// k1-1, the pair's arc running from the edge's U toward its V (-1 when
// nothing is staged).
func (mf *maxflowScratch) place(a, b, k0, k1 int32, m float64) {
	pair := [2]int32{-1, -1} // indexed by the walk's V→U bit
	if m > 0 {
		pair[0], pair[1] = mf.addPair(a, b, m)
	}
	edgeArc := mf.edgeArc
	for _, w := range mf.sr.walk[k0:k1] {
		edgeArc[w>>1] = pair[w&1]
	}
}

// addPair places the twin arcs u→v and v→u of capacity c at the
// cursors of their tails' rows and returns their indices.
func (mf *maxflowScratch) addPair(u, v int32, c float64) (uv, vu int32) {
	uv, vu = mf.cur[u], mf.cur[v]
	mf.cur[u]++
	mf.cur[v]++
	mf.arcs[uv] = flowArc{to: v, twin: vu, cap: c}
	mf.arcs[vu] = flowArc{to: u, twin: uv, cap: c}
	return uv, vu
}

// levels labels vertices with their residual distance to t by a
// reverse BFS, stopping as soon as s is labeled. It reports whether s
// can still reach t. Vertices left unlabeled keep level -1; after a
// failed search the unlabeled branch and forced vertices are exactly
// the source side of a minimum cut of the reduced network, and
// MinCutSide places the vertices inside segments.
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
