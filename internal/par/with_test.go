package par

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// with_test.go covers the per-worker state: state is created at most
// once per worker, results stay identical to the stateless ones at any
// worker count, and cancellation behaves like the stateless runs.

func TestMapCtxWithMatchesMapCtx(t *testing.T) {
	const n = 1000
	want, err := Map(context.Background(), n, 1, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		var created atomic.Int64
		got, err := MapWith(context.Background(), n, workers,
			func() *[]int { created.Add(1); buf := make([]int, 0, 8); return &buf },
			func(i int, scratch *[]int) int {
				*scratch = append((*scratch)[:0], i) // exercise the scratch
				return (*scratch)[0] * i
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
		if c := created.Load(); c < 1 || c > int64(Workers(workers)) {
			t.Fatalf("workers=%d: newState called %d times, want 1..%d", workers, c, Workers(workers))
		}
	}
}

func TestRunCtxWithOneStatePerWorker(t *testing.T) {
	const n = 10 * ChunkSize
	var created atomic.Int64
	type state struct{ touched int }
	err := RunWith(context.Background(), n, 4,
		func() *state { created.Add(1); return &state{} },
		func(i int, s *state) { s.touched++ })
	if err != nil {
		t.Fatal(err)
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Fatalf("newState called %d times, want 1..4", c)
	}
}

// TestMapSeededRangeCtxWithMatchesStateless: a state the body really
// uses leaves the per-chunk rand streams of a window untouched.
func TestMapSeededRangeCtxWithMatchesStateless(t *testing.T) {
	const lo, hi, seed = 32, 32 + 5*ChunkSize, int64(99)
	want, err := MapSeeded(context.Background(), lo, hi, 1, seed, noState,
		func(i int, rng *rand.Rand, _ struct{}) int64 { return int64(i) + rng.Int63n(1000) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := MapSeeded(context.Background(), lo, hi, workers, seed,
			func() *strings.Builder { return new(strings.Builder) },
			func(i int, rng *rand.Rand, b *strings.Builder) int64 {
				b.WriteByte('x') // state grows with every item the worker runs
				return int64(i) + rng.Int63n(1000)
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d (rand stream drifted)", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunCtxWithPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := RunWith(ctx, 1000, 4, func() int { return 0 },
		func(i int, _ int) { ran.Add(1) })
	if err == nil {
		t.Fatal("want ctx error from pre-canceled run")
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-canceled run executed %d items", ran.Load())
	}
}
