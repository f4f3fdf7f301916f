package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tree_test.go pins the Tree contract: one full ShortestTree settle
// answers every destination exactly as the per-pair entry points would
// — same reachability, same parent-trace paths, and the same float64
// path weight bit for bit — because parents only change on
// strictly-shorter relaxations, and re-summing the weight from the
// source repeats Dijkstra's own additions in order.

// realWeights draws a float64 table with fractional lengths (so the
// addition order shows in the low bits) and a few excluded edges.
func realWeights(rng *rand.Rand, g *Graph) []float64 {
	w := make([]float64, g.NumEdges())
	for i := range w {
		if rng.Intn(9) == 0 {
			w[i] = math.Inf(1)
			continue
		}
		w[i] = rng.Float64() * 1000
	}
	return w
}

func TestTreeQueriesMatchPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tws, pws := NewWorkspace(), NewWorkspace()
	var parents []int32 // one buffer reused across sources and graph sizes
	paths := 0
	for trial := 0; trial < 60; trial++ {
		g := randomMultigraph(rng)
		var weights []float64 // nil: default weights
		if trial%2 == 1 {
			weights = realWeights(rng, g)
		}
		wf := func(eid int) float64 { return weights[eid] }
		if weights == nil {
			wf = nil
		}
		for src := 0; src < g.NumVertices(); src++ {
			tree := g.ShortestTree(tws, src, weights)
			if parents = g.ShortestParents(pws, src, weights, parents); !reflect.DeepEqual(parents, tree.parent) {
				t.Fatalf("trial %d from %d: exported parents %v, tree parents %v", trial, src, parents, tree.parent)
			}
			for dst := 0; dst < g.NumVertices(); dst++ {
				tp, tok := tree.Path(dst)
				pp, pok := g.ShortestPath(pws, src, dst, wf)
				if tok != pok || tree.reachable(dst) != pok {
					t.Fatalf("trial %d %d->%d: tree ok=%v reachable=%v, per-pair ok=%v", trial, src, dst, tok, tree.reachable(dst), pok)
				}
				if !reflect.DeepEqual(tp, pp) {
					t.Fatalf("trial %d %d->%d: tree path %+v, per-pair %+v", trial, src, dst, tp, pp)
				}
				if tok {
					paths++
					if pd, _ := g.ShortestDistance(pws, src, dst, wf); math.Float64bits(tp.Weight) != math.Float64bits(pd) {
						t.Fatalf("trial %d %d->%d: tree weight %v, per-pair distance %v", trial, src, dst, tp.Weight, pd)
					}
				}
			}
		}
	}
	if paths < 1000 {
		t.Fatalf("only %d reachable pairs compared", paths)
	}
}

func TestTreeGuardsRangeAndReachability(t *testing.T) {
	g := buildDiamond()
	tree := g.ShortestTree(NewWorkspace(), 0, nil)
	if p, ok := tree.Path(3); !ok || p.Weight != 2 || !equalIntSlices(p.Nodes, []int{0, 1, 3}) {
		t.Errorf("path to 3 = %+v, %v", p, ok)
	}
	if p, ok := tree.Path(0); !ok || len(p.Edges) != 0 || !equalIntSlices(p.Nodes, []int{0}) {
		t.Errorf("path to the source = %+v, %v", p, ok)
	}
	if tree.reachable(4) {
		t.Error("isolated vertex reported reachable")
	}
	if _, ok := tree.Path(4); ok {
		t.Error("path to an isolated vertex")
	}
	if tree.reachable(-1) || tree.reachable(99) {
		t.Error("out-of-range destination accepted")
	}
	if _, ok := tree.Path(99); ok {
		t.Error("path to an out-of-range destination")
	}
	for _, bad := range []func(){
		func() { g.ShortestTree(NewWorkspace(), -1, nil) },
		func() { g.ShortestTree(NewWorkspace(), 0, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid ShortestTree call did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestTreeSharedAcrossGoroutines: a built tree is immutable, so
// concurrent queries need no lock (run under -race).
func TestTreeSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomMultigraph(rng)
	tree := g.ShortestTree(NewWorkspace(), 0, nil)
	want := make([]Path, g.NumVertices())
	for v := range want {
		want[v], _ = tree.Path(v)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for v := range want {
				if p, _ := tree.Path(v); !reflect.DeepEqual(p, want[v]) {
					t.Errorf("concurrent path to %d = %+v, want %+v", v, p, want[v])
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
