package mitigate

import (
	"context"
	"reflect"
	"testing"

	"intertubes/internal/latency"
)

// TestLatencyStudyWorkerInvariance pins the parallel all-pairs sweep,
// the atlas it reads included, to the serial result for several worker
// counts.
func TestLatencyStudyWorkerInvariance(t *testing.T) {
	res, _ := build(t)
	base, _ := LatencyStudy(context.Background(), litAtlas(t, res.Map, latency.Options{Workers: 1}), res.Atlas, LatencyOptions{MaxPairs: 250, Workers: 1})
	if len(base) == 0 {
		t.Fatal("empty latency study")
	}
	for _, workers := range []int{2, 6} {
		at := litAtlas(t, res.Map, latency.Options{Workers: workers})
		got, _ := LatencyStudy(context.Background(), at, res.Atlas, LatencyOptions{MaxPairs: 250, Workers: workers})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: latency pairs diverge from serial", workers)
		}
	}
}

// TestLatencyImprovementsWorkerInvariance pins the parallel §5.3
// build-proposal sweep to the serial result: the ranked proposals must
// be identical for any worker count.
func TestLatencyImprovementsWorkerInvariance(t *testing.T) {
	res, _ := build(t)
	study, _ := LatencyStudy(context.Background(), litAtlas(t, res.Map, latency.Options{Workers: 1}), res.Atlas, LatencyOptions{MaxPairs: 250, Workers: 1})
	base, _ := LatencyImprovements(context.Background(), res.Map, res.Atlas, study, 10, LatencyOptions{Workers: 1})
	if len(base) == 0 {
		t.Fatal("no proposed builds")
	}
	for _, workers := range []int{2, 6} {
		got, _ := LatencyImprovements(context.Background(), res.Map, res.Atlas, study, 10, LatencyOptions{Workers: workers})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: proposed builds diverge from serial", workers)
		}
	}
}

// TestAddConduitsDeterministicFullMap is the regression guard for the
// §5.2 greedy sweep on the full seed-42 map: the chosen additions must
// not depend on the worker count, and the top-k endpoints are pinned
// as golden values so any drift in candidate scoring (for example a
// reintroduced map-iteration sum) fails loudly here.
func TestAddConduitsDeterministicFullMap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-map greedy sweep")
	}
	res, mx := build(t)
	run := func(workers int) *AddResult {
		out, _ := AddConduits(context.Background(), res.Map, mx, AddOptions{K: 3, Workers: workers})
		return out
	}
	base := run(1)
	if len(base.Additions) != 3 {
		t.Fatalf("additions = %d, want 3", len(base.Additions))
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if !reflect.DeepEqual(got.Additions, base.Additions) {
			t.Errorf("workers=%d: additions diverge from serial", workers)
		}
		if !reflect.DeepEqual(got.Improvement, base.Improvement) {
			t.Errorf("workers=%d: improvement curves diverge from serial", workers)
		}
	}

	// Golden endpoints for mapbuilder seed 42, AddOptions{K: 3}.
	// Regenerate by logging base.Additions if the map pipeline or the
	// scoring objective changes intentionally.
	golden := [][2]string{
		{"Santa Barbara,CA", "Anaheim,CA"},
		{"Santa Barbara,CA", "Riverside,CA"},
		{"Newark,NJ", "Scranton,PA"},
	}
	for i, add := range base.Additions {
		a := res.Map.Node(add.A).Key()
		b := res.Map.Node(add.B).Key()
		if a != golden[i][0] || b != golden[i][1] {
			t.Errorf("addition %d = %s -- %s, want %s -- %s", i, a, b, golden[i][0], golden[i][1])
		}
	}
}
