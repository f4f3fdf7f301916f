package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// maxflow_test.go pins MaxFlow to a naive Edmonds-Karp reference
// over a dense residual matrix, and checks a certificate for every
// answer: the residual network the kernel leaves behind must hold a
// feasible flow of the returned value and, when the limit did not
// bind, a cut of equal capacity. Both sides use small integer
// capacities, so float64 arithmetic is exact and every comparison is
// equality, not tolerance.

var inf = math.Inf(1)

// refMaxFlow is BFS-augmenting-path Ford-Fulkerson over an adjacency
// matrix. Parallel undirected edges merge by capacity sum, which
// leaves the max-flow value unchanged.
func refMaxFlow(n int, edges []Edge, caps func(i int) float64, src, dst int) float64 {
	res := make([][]float64, n)
	for i := range res {
		res[i] = make([]float64, n)
	}
	for i, e := range edges {
		c := caps(i)
		if c <= 0 || math.IsInf(c, 1) || math.IsNaN(c) || e.U == e.V {
			continue
		}
		res[e.U][e.V] += c
		res[e.V][e.U] += c
	}
	total := 0.0
	parent := make([]int, n)
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for len(queue) > 0 && parent[dst] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if res[u][v] > 0 && parent[v] == -1 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[dst] == -1 {
			return total
		}
		b := math.Inf(1)
		for v := dst; v != src; v = parent[v] {
			if res[parent[v]][v] < b {
				b = res[parent[v]][v]
			}
		}
		for v := dst; v != src; v = parent[v] {
			res[parent[v]][v] -= b
			res[v][parent[v]] += b
		}
		total += b
	}
}

// combined returns the base edges plus extras as one list with a
// capacity accessor, the shape refMaxFlow wants.
func combined(g *Graph, caps []float64, extra []Edge) ([]Edge, func(i int) float64) {
	all := make([]Edge, 0, len(g.edges)+len(extra))
	all = append(all, g.edges...)
	all = append(all, extra...)
	return all, func(i int) float64 {
		if i < len(g.edges) {
			return caps[i]
		}
		return extra[i-len(g.edges)].Weight
	}
}

// reducedEdge is one edge of the series-reduced network a MaxFlow
// call should stage: ends a and b, and capacity c — the smallest
// capacity along it, 0 when any edge on it is not usable.
type reducedEdge struct {
	a, b int
	c    float64
}

// seriesReduction restates the kernel's reduction from its definition
// rather than borrowing it: a vertex passes flow through when it has
// exactly two incident edges, neither a self-loop, and is not forced;
// every other vertex stays, and so does the lowest vertex of a
// connected component in which every vertex has two such edges (a
// cycle). Each maximal walk between two staying vertices through
// pass-through ones is one reduced edge; self-loops are reduced edges
// with a == b. Extras are not included.
func seriesReduction(n int, edges []Edge, capOf func(i int) float64, forced []bool) []reducedEdge {
	inc := make([][]int, n)
	loop := make([]bool, n)
	for i, e := range edges {
		inc[e.U] = append(inc[e.U], i)
		if e.U == e.V {
			loop[e.U] = true
		} else {
			inc[e.V] = append(inc[e.V], i)
		}
	}
	through := func(v int) bool { return len(inc[v]) == 2 && !loop[v] }
	stay := make([]bool, n)
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		stay[v] = forced[v] || !through(v)
		if seen[v] {
			continue
		}
		// Flood v's component; one made only of pass-through vertices is
		// a cycle, and keeps v, its lowest.
		cycle := true
		seen[v] = true
		for queue := []int{v}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			cycle = cycle && through(u)
			for _, i := range inc[u] {
				w := edges[i].U ^ edges[i].V ^ u
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if cycle {
			stay[v] = true
		}
	}
	var out []reducedEdge
	done := make([]bool, len(edges))
	for v := 0; v < n; v++ {
		if !stay[v] {
			continue
		}
		for _, i := range inc[v] {
			if done[i] {
				continue
			}
			r := reducedEdge{a: v, c: math.Inf(1)}
			for at := v; ; {
				done[i] = true
				r.c = math.Min(r.c, capOf(i))
				at = edges[i].U ^ edges[i].V ^ at
				if stay[at] {
					r.b = at
					break
				}
				if next := inc[at][0]; next != i {
					i = next
				} else {
					i = inc[at][1]
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// checkMaxFlowCertificate verifies the residual network ws holds
// after got = MaxFlow(ws, src, dst, caps, extra, limit) against the
// test's own series reduction (seriesReduction, with src, dst and the
// usable extras' endpoints forced), without trusting the kernel's
// layout:
//
//   - each vertex's arcs are exactly its usable reduced edges and
//     extras (head and capacity, as multisets): one twin arc pair per
//     reduced edge whose ends differ and whose edges are all usable,
//     at its smallest capacity, and none at a pass-through vertex;
//     twins pair up, and no residual is negative — so every arc's
//     flow is within its capacity;
//   - flow is conserved at every vertex other than src and dst;
//   - the net flow out of src equals got, or reaches limit when the
//     result is capped;
//   - when the result is uncapped, the vertices the final reverse BFS
//     left unlabeled contain src but not dst, and the reduced edges
//     and extras leaving them carry exactly got capacity — a cut of
//     the reduced network certifying maximality.
//
// checkExportedWitness then holds what FlowOn and MinCutSide report on
// the base edges to the same conditions.
func checkMaxFlowCertificate(g *Graph, ws *Workspace, src, dst int, caps []float64, extra []Edge, limit, got float64) error {
	n := g.NumVertices()
	all, capOf := combined(g, caps, extra)
	// The usable-edge rule, restated rather than borrowed from the
	// kernel: positive finite capacity, not a self-loop.
	usable := func(i int) (float64, bool) {
		c := capOf(i)
		return c, c > 0 && !math.IsInf(c, 1) && all[i].U != all[i].V
	}
	if err := checkExportedWitness(n, ws, src, dst, all, usable, limit, got); err != nil {
		return fmt.Errorf("exported witness: %w", err)
	}
	if src == dst || src < 0 || src >= n || dst < 0 || dst >= n || !(limit > 0) {
		if got != 0 {
			return fmt.Errorf("degenerate query returned %v, want 0", got)
		}
		return nil // nothing staged
	}
	forced := make([]bool, n)
	forced[src], forced[dst] = true, true
	var staged []reducedEdge
	for i, e := range extra {
		if c, ok := usable(g.NumEdges() + i); ok {
			forced[e.U], forced[e.V] = true, true
			staged = append(staged, reducedEdge{e.U, e.V, c})
		}
	}
	for _, r := range seriesReduction(n, g.edges, func(i int) float64 {
		if c, ok := usable(i); ok {
			return c
		}
		return 0
	}, forced) {
		if r.c > 0 && r.a != r.b {
			staged = append(staged, r)
		}
	}
	type half struct {
		to  int
		cap float64
	}
	sortHalves := func(hs []half) {
		sort.Slice(hs, func(i, j int) bool {
			if hs[i].to != hs[j].to {
				return hs[i].to < hs[j].to
			}
			return hs[i].cap < hs[j].cap
		})
	}
	want := make([][]half, n)
	for _, r := range staged {
		want[r.a] = append(want[r.a], half{r.b, r.c})
		want[r.b] = append(want[r.b], half{r.a, r.c})
	}

	mf := ws.mf
	if len(mf.off) != n+1 || int(mf.off[n]) != len(mf.arcs) {
		return fmt.Errorf("CSR offsets do not cover %d vertices / %d arcs", n, len(mf.arcs))
	}
	tail := func(a int32) int {
		return sort.Search(n, func(v int) bool { return mf.off[v+1] > a })
	}
	netOut := make([]float64, n)
	for v := 0; v < n; v++ {
		var have []half
		for a := mf.off[v]; a < mf.off[v+1]; a++ {
			arc := mf.arcs[a]
			if arc.twin < 0 || int(arc.twin) >= len(mf.arcs) {
				return fmt.Errorf("arc %d: twin %d out of range", a, arc.twin)
			}
			tw := mf.arcs[arc.twin]
			if tw.twin != a || int(tw.to) != v || tail(arc.twin) != int(arc.to) {
				return fmt.Errorf("arc %d (%d→%d): twin %d does not run back", a, v, arc.to, arc.twin)
			}
			if arc.cap < 0 {
				return fmt.Errorf("arc %d (%d→%d): negative residual %v", a, v, arc.to, arc.cap)
			}
			// Twin residuals always sum to twice the edge capacity; the
			// flow on v→to is half their difference.
			have = append(have, half{int(arc.to), (arc.cap + tw.cap) / 2})
			netOut[v] += (tw.cap - arc.cap) / 2
		}
		sortHalves(have)
		sortHalves(want[v])
		if fmt.Sprint(have) != fmt.Sprint(want[v]) {
			return fmt.Errorf("vertex %d: staged arcs %v, usable reduced edges %v", v, have, want[v])
		}
	}
	for v := 0; v < n; v++ {
		if v != src && v != dst && netOut[v] != 0 {
			return fmt.Errorf("vertex %d: flow not conserved (net out %v)", v, netOut[v])
		}
	}
	if got >= limit {
		if got != limit || netOut[src] < limit {
			return fmt.Errorf("capped result %v with net flow %v, limit %v", got, netOut[src], limit)
		}
		return nil
	}
	if netOut[src] != got {
		return fmt.Errorf("net flow out of src = %v, result %v", netOut[src], got)
	}
	if mf.level[src] >= 0 || mf.level[dst] < 0 {
		return fmt.Errorf("final BFS labeled src (%d) or left dst unlabeled (%d)", mf.level[src], mf.level[dst])
	}
	cut := 0.0
	for _, r := range staged {
		if (mf.level[r.a] < 0) != (mf.level[r.b] < 0) {
			cut += r.c
		}
	}
	if cut != got {
		return fmt.Errorf("unlabeled-set cut capacity %v != flow %v", cut, got)
	}
	return nil
}

// checkExportedWitness checks the flow table FlowOn exports and the cut
// side MinCutSide reports after got = MaxFlow(ws, src, dst, ...) over
// the staged edges all (base edges, then extras), reading nothing of
// the kernel's scratch:
//
//   - |flow| <= capacity on every usable edge, 0 on every other one,
//     and 0 past the staged edges;
//   - flow is conserved at every vertex other than src and dst;
//   - the net flow out of src equals got, or reaches limit when the
//     result is capped;
//   - when the result is uncapped, MinCutSide reports a side holding
//     src but not dst whose crossing edges carry exactly got
//     capacity, and that side is exactly the vertices that cannot
//     reach dst in the exported flow's residual network; otherwise it
//     reports no cut.
//
// A degenerate query stages nothing: every flow reads 0 and there is
// no cut.
func checkExportedWitness(n int, ws *Workspace, src, dst int, all []Edge, usable func(i int) (float64, bool), limit, got float64) error {
	flow := make([]float64, len(all)+1)
	for i := range flow {
		flow[i] = math.NaN()
	}
	ws.FlowOn(flow)
	side := make([]bool, n)
	hasCut := ws.MinCutSide(side)
	if src == dst || src < 0 || src >= n || dst < 0 || dst >= n || !(limit > 0) {
		for i, f := range flow {
			if f != 0 {
				return fmt.Errorf("degenerate query: edge %d carries %v", i, f)
			}
		}
		if hasCut {
			return fmt.Errorf("degenerate query reports a cut")
		}
		return nil
	}
	if f := flow[len(all)]; f != 0 {
		return fmt.Errorf("entry past the %d staged edges reads %v", len(all), f)
	}
	net := make([]float64, n)
	for i, e := range all {
		f := flow[i]
		c, ok := usable(i)
		if !ok {
			if f != 0 {
				return fmt.Errorf("excluded edge %d (%d-%d) carries %v", i, e.U, e.V, f)
			}
			continue
		}
		if math.Abs(f) > c {
			return fmt.Errorf("edge %d (%d-%d): |flow| %v over capacity %v", i, e.U, e.V, f, c)
		}
		net[e.U] += f
		net[e.V] -= f
	}
	for v := 0; v < n; v++ {
		if v != src && v != dst && net[v] != 0 {
			return fmt.Errorf("vertex %d: exported flow not conserved (net out %v)", v, net[v])
		}
	}
	if got >= limit {
		if net[src] < limit {
			return fmt.Errorf("capped result %v: exported net flow %v below limit %v", got, net[src], limit)
		}
		if hasCut {
			return fmt.Errorf("capped result %v reports a cut", got)
		}
		return nil
	}
	if net[src] != got {
		return fmt.Errorf("exported net flow out of src = %v, result %v", net[src], got)
	}
	if !hasCut {
		return fmt.Errorf("uncapped result %v reports no cut", got)
	}
	if !side[src] || side[dst] {
		return fmt.Errorf("cut side holds src %v, dst %v; want true, false", side[src], side[dst])
	}
	cut := 0.0
	for i, e := range all {
		if c, ok := usable(i); ok && side[e.U] != side[e.V] {
			cut += c
		}
	}
	if cut != got {
		return fmt.Errorf("exported cut capacity %v != flow %v", cut, got)
	}
	// Every maximum flow leaves the same set unable to reach dst, so
	// the side is pinned exactly: a plain BFS back from dst over the
	// exported flow's residuals, c−f along U→V and c+f along V→U.
	type step struct {
		to  int
		res float64
	}
	into := make([][]step, n) // into[v]: the vertices one residual arc from v
	for i, e := range all {
		if c, ok := usable(i); ok {
			into[e.V] = append(into[e.V], step{e.U, c - flow[i]})
			into[e.U] = append(into[e.U], step{e.V, c + flow[i]})
		}
	}
	reach := make([]bool, n)
	reach[dst] = true
	for queue := []int{dst}; len(queue) > 0; queue = queue[1:] {
		for _, s := range into[queue[0]] {
			if !reach[s.to] && s.res > 0 {
				reach[s.to] = true
				queue = append(queue, s.to)
			}
		}
	}
	for v := range side {
		if side[v] == reach[v] {
			return fmt.Errorf("vertex %d: on the cut side %v, reaches dst in the residual network %v", v, side[v], reach[v])
		}
	}
	return nil
}

// randomLimit draws a flow limit relative to the true max flow: +Inf,
// below it (fractional, as demand limits are), equal, or above.
func randomLimit(rng *rand.Rand, maxFlow float64) float64 {
	switch rng.Intn(4) {
	case 0:
		return inf
	case 1:
		return maxFlow * rng.Float64()
	case 2:
		return maxFlow
	default:
		return maxFlow + 0.5 + float64(rng.Intn(3))
	}
}

func TestMaxFlowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		g := randomMultigraph(rng)
		n := g.NumVertices()
		caps := make([]float64, g.NumEdges())
		for i := range caps {
			switch rng.Intn(8) {
			case 0:
				caps[i] = 0 // excluded
			case 1:
				caps[i] = math.Inf(1) // excluded
			default:
				caps[i] = float64(1 + rng.Intn(6))
			}
		}
		var extra []Edge
		for i := rng.Intn(4); i > 0; i-- {
			extra = append(extra, Edge{
				U: rng.Intn(n), V: rng.Intn(n), Weight: float64(rng.Intn(5)),
			})
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		if err := checkRandomLimit(rng, g, ws, src, dst, caps, extra); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// checkRandomLimit runs MaxFlow(src, dst) under caps and extra with a
// limit drawn by randomLimit around the reference max flow, and holds
// the answer to min(reference, limit) and to the certificate.
func checkRandomLimit(rng *rand.Rand, g *Graph, ws *Workspace, src, dst int, caps []float64, extra []Edge) error {
	all, capOf := combined(g, caps, extra)
	ref := 0.0
	if src != dst {
		ref = refMaxFlow(g.NumVertices(), all, capOf, src, dst)
	}
	limit := randomLimit(rng, ref)
	got := g.MaxFlow(ws, src, dst, caps, extra, limit)
	if want := math.Min(ref, limit); got != want && !(limit <= 0 && got == 0) {
		return fmt.Errorf("MaxFlow(%d,%d, limit %v) = %v, reference %v", src, dst, limit, got, want)
	}
	if err := checkMaxFlowCertificate(g, ws, src, dst, caps, extra, limit, got); err != nil {
		return fmt.Errorf("MaxFlow(%d,%d, limit %v) = %v: %v", src, dst, limit, got, err)
	}
	return nil
}

// TestMaxFlowSeriesChains runs MaxFlow on multigraphs made of chains —
// every skeleton edge subdivided into a path of 1–5 edges, with cycles
// of interior vertices, parallel chains and self-loops at chain ends —
// drawing src, dst and the extras' endpoints from chain interiors half
// the time, so calls split chains mid-way. Each graph then gains one
// more edge and answers again, so the memoized chains are rebuilt.
func TestMaxFlowSeriesChains(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ws := NewWorkspace()
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(8)
		g := New(k)
		var mid []int // chain-interior vertices
		chain := func(u, v, hops int) {
			for ; hops > 1; hops-- {
				w := g.AddVertex()
				mid = append(mid, w)
				g.AddEdge(u, w, 1)
				u = w
			}
			g.AddEdge(u, v, 1)
		}
		for i := rng.Intn(3 * k); i >= 0; i-- {
			u, v := rng.Intn(k), rng.Intn(k)
			for par := 1 + rng.Intn(2); par > 0; par-- {
				chain(u, v, 1+rng.Intn(5))
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			c := g.AddVertex()
			mid = append(mid, c)
			chain(c, c, 2+rng.Intn(4))
		}
		for i := rng.Intn(3); i > 0; i-- {
			v := rng.Intn(k)
			g.AddEdge(v, v, 1)
		}
		pick := func() int {
			if len(mid) > 0 && rng.Intn(2) == 0 {
				return mid[rng.Intn(len(mid))]
			}
			return rng.Intn(g.NumVertices())
		}
		for round := 0; round < 2; round++ {
			if round == 1 {
				g.AddEdge(pick(), pick(), 1)
			}
			caps := make([]float64, g.NumEdges())
			for i := range caps {
				switch rng.Intn(12) {
				case 0:
					caps[i] = 0
				case 1:
					caps[i] = inf
				default:
					caps[i] = float64(1 + rng.Intn(6))
				}
			}
			var extra []Edge
			for i := rng.Intn(3); i > 0; i-- {
				extra = append(extra, Edge{U: pick(), V: pick(), Weight: float64(rng.Intn(5))})
			}
			if err := checkRandomLimit(rng, g, ws, pick(), pick(), caps, extra); err != nil {
				t.Fatalf("trial %d.%d: %v", trial, round, err)
			}
		}
	}
}

// TestMaxFlowReuseMatchesFresh checks a long-lived workspace answers
// exactly like a fresh one, interleaved with other kernel queries that
// share its scratch.
func TestMaxFlowReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	reused := NewWorkspace()
	for trial := 0; trial < 150; trial++ {
		g := randomMultigraph(rng)
		n := g.NumVertices()
		caps := make([]float64, g.NumEdges())
		for i := range caps {
			caps[i] = float64(1 + rng.Intn(4))
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		// Interleave a Dijkstra query so dist/heap scratch churns
		// between flow queries.
		g.ShortestDistances(reused, src, nil, nil)
		got := g.MaxFlow(reused, src, dst, caps, nil, inf)
		if err := checkMaxFlowCertificate(g, reused, src, dst, caps, nil, inf, got); err != nil {
			t.Fatalf("trial %d: reused ws: %v", trial, err)
		}
		want := NewWorkspace()
		if fresh := g.MaxFlow(want, src, dst, caps, nil, inf); got != fresh {
			t.Fatalf("trial %d: reused ws = %v, fresh ws = %v", trial, got, fresh)
		}
		if err := checkMaxFlowCertificate(g, want, src, dst, caps, nil, inf, got); err != nil {
			t.Fatalf("trial %d: fresh ws: %v", trial, err)
		}
	}
}

// TestMaxFlowEpochWrap runs flow queries across the workspace epoch
// wrap-around: MaxFlow does not stamp epochs itself, but it shares
// the workspace with kernels that do, and must stay correct when the
// wrap clears their stamps between its calls.
func TestMaxFlowEpochWrap(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	caps := []float64{3, 2, 4, 5}
	ws := NewWorkspace()
	check := func() {
		t.Helper()
		if f := g.MaxFlow(ws, 0, 3, caps, nil, inf); f != 5 {
			t.Fatalf("flow after epoch %d = %v, want 5", ws.epoch, f)
		}
		if d := g.ShortestDistances(ws, 0, nil, nil); d[3] != 2 {
			t.Fatalf("dist after epoch %d = %v", ws.epoch, d)
		}
	}
	check()
	ws.epoch = math.MaxUint32 - 1
	check() // runs at MaxUint32
	check() // wraps: stamps cleared, epoch restarts at 1
	check()
}

func TestMaxFlowDegenerate(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	ws := NewWorkspace()
	caps := []float64{7}
	if f := g.MaxFlow(ws, 0, 0, caps, nil, inf); f != 0 {
		t.Fatalf("src==dst flow = %v, want 0", f)
	}
	if f := g.MaxFlow(ws, 0, 2, caps, nil, inf); f != 0 {
		t.Fatalf("disconnected flow = %v, want 0", f)
	}
	if f := g.MaxFlow(ws, -1, 1, caps, nil, inf); f != 0 {
		t.Fatalf("out-of-range src flow = %v, want 0", f)
	}
	// A pure-extra path: flow exists even when every base edge is
	// excluded.
	if f := g.MaxFlow(ws, 0, 2, []float64{0}, []Edge{{U: 0, V: 2, Weight: 3}}, inf); f != 3 {
		t.Fatalf("extra-edge flow = %v, want 3", f)
	}
}

func TestMaxFlowWSZeroAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	g, ws, _ := allocFixture()
	caps := make([]float64, g.NumEdges())
	for i := range caps {
		caps[i] = float64(1 + i%5)
	}
	extra := []Edge{{U: 1, V: 7, Weight: 2}}
	g.MaxFlow(ws, 0, 399, caps, extra, inf) // warm: scratch growth
	if avg := testing.AllocsPerRun(50, func() {
		g.MaxFlow(ws, 0, 399, caps, extra, inf)
	}); avg != 0 {
		t.Fatalf("MaxFlow allocates %.1f per run, want 0", avg)
	}

	// src inside a chain of the cycle 0-1-2-3-4-5-0 splits it.
	ring := New(6)
	for v := 0; v < 6; v++ {
		ring.AddEdge(v, (v+1)%6, 1)
	}
	ring.MaxFlow(ws, 2, 5, nil, extra, inf)
	if avg := testing.AllocsPerRun(50, func() {
		ring.MaxFlow(ws, 2, 5, nil, extra, inf)
	}); avg != 0 {
		t.Fatalf("MaxFlow on a split chain allocates %.1f per run, want 0", avg)
	}
}

// FuzzMaxFlow decodes a small multigraph from the fuzz bytes — a
// vertex count, then (u, v, capacity) triples whose capacity byte also
// yields the excluded values 0 and +Inf, a split between base and
// extra edges, endpoints and a limit — and holds MaxFlow to
// min(reference, limit) plus the certificate.
func FuzzMaxFlow(f *testing.F) {
	f.Add([]byte{4, 0, 3, 1, 2, 0, 1, 5, 1, 2, 3, 2, 3, 4, 0, 2, 9, 0})
	f.Add([]byte{6, 1, 5, 0xff, 0, 1, 3, 1, 2, 0, 2, 3, 7, 3, 4, 2, 4, 5, 1, 2, 4, 3})
	f.Add([]byte{2, 0, 1, 1, 0, 1, 0, 0, 1, 2})
	// Chains: src mid-chain on 0-1-2-3 beside 0-4-3; an extra from the
	// middle of the path 0-…-5; src and dst on a cycle, capped.
	f.Add([]byte{3, 1, 3, 0xff, 5, 0, 1, 3, 1, 2, 4, 2, 3, 2, 0, 4, 5, 4, 3, 1})
	f.Add([]byte{4, 0, 5, 0xff, 5, 0, 1, 6, 1, 2, 2, 2, 3, 7, 3, 4, 3, 4, 5, 5, 2, 5, 4})
	f.Add([]byte{2, 1, 3, 6, 4, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		src, dst := int(data[1])%n, int(data[2])%n
		limit := inf
		if lb := data[3]; lb < 0xf0 {
			limit = float64(lb) / 4 // fractional limits, as demand limits are
		}
		data = data[4:]
		nBase := 0
		if len(data) > 0 {
			nBase = int(data[0])
			data = data[1:]
		}
		capOf := func(b byte) float64 {
			switch {
			case b == 0:
				return 0
			case b == 0xff:
				return inf
			}
			return float64(b % 9)
		}
		g := New(n)
		var caps []float64
		var extra []Edge
		for i := 0; len(data) >= 3 && i < 64; i++ {
			u, v, c := int(data[0])%n, int(data[1])%n, capOf(data[2])
			data = data[3:]
			if i < nBase {
				g.AddEdge(u, v, 1)
				caps = append(caps, c)
			} else {
				extra = append(extra, Edge{U: u, V: v, Weight: c})
			}
		}
		ws := NewWorkspace()
		got := g.MaxFlow(ws, src, dst, caps, extra, limit)
		all, capAt := combined(g, caps, extra)
		ref := 0.0
		if src != dst {
			ref = refMaxFlow(n, all, capAt, src, dst)
		}
		want := math.Min(ref, limit)
		if limit <= 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("MaxFlow(%d,%d, limit %v) = %v, want min(%v, limit)", src, dst, limit, got, ref)
		}
		if err := checkMaxFlowCertificate(g, ws, src, dst, caps, extra, limit, got); err != nil {
			t.Fatalf("MaxFlow(%d,%d, limit %v) = %v: %v", src, dst, limit, got, err)
		}
	})
}
