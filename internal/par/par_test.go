package par

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// noState is the per-worker state of calls that need none.
func noState() struct{} { return struct{}{} }

// serialMap is the reference implementation every parallel variant
// must match: a plain loop.
func serialMap[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		out[i] = fn(i)
	}
	return out
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	for _, n := range []int{0, -1, -100} {
		if got := Workers(n); got != runtime.NumCPU() {
			t.Errorf("Workers(%d) = %d, want NumCPU %d", n, got, runtime.NumCPU())
		}
	}
}

// TestMapMatchesSerialQuick is the property the ISSUE demands: any
// slice length x any worker count yields the same ordered results as
// a plain loop.
func TestMapMatchesSerialQuick(t *testing.T) {
	prop := func(n uint16, workers uint8, salt int64) bool {
		length := int(n % 3000)
		w := int(workers%12) - 2 // exercise <=0 (NumCPU) too
		fn := func(i int) int64 { return salt + int64(i)*31 }
		got, err := Map(context.Background(), length, w, fn)
		want := serialMap(length, fn)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMapSeededWorkerInvarianceQuick pins the stronger property: the
// per-chunk rand streams make MapSeeded's output identical for every
// worker count, even though each item consumes a data-dependent
// number of rand calls.
func TestMapSeededWorkerInvarianceQuick(t *testing.T) {
	fn := func(i int, rng *rand.Rand, _ struct{}) float64 {
		v := rng.Float64()
		// Data-dependent consumption: some items draw again.
		if i%3 == 0 {
			v += rng.Float64() * float64(rng.Intn(5))
		}
		return v
	}
	prop := func(n uint16, workers uint8, seed int64) bool {
		length := int(n % 2048)
		w := 1 + int(workers%9)
		got, err := MapSeeded(context.Background(), 0, length, w, seed, noState, fn)
		want, _ := MapSeeded(context.Background(), 0, length, 1, seed, noState, fn)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMapEdgeCases(t *testing.T) {
	double := func(i int) int { return 2 * i }
	cases := []struct {
		n, workers int
	}{
		{0, 1}, {0, 8}, {-3, 4}, // empty and negative lengths
		{1, 1}, {1, 16}, // single item, more workers than items
		{5, 64},            // len < workers
		{ChunkSize, 2},     // exactly one chunk
		{ChunkSize + 1, 2}, // one chunk plus a remainder of 1
		{4 * ChunkSize, 3}, // chunk count not divisible by workers
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d_w=%d", c.n, c.workers), func(t *testing.T) {
			got, err := Map(context.Background(), c.n, c.workers, double)
			if err != nil {
				t.Fatal(err)
			}
			want := serialMap(c.n, double)
			if len(got) != len(want) {
				t.Fatalf("len = %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		n := 10*ChunkSize + 17
		visits := make([]atomic.Int32, n)
		if err := RunWith(context.Background(), n, workers, noState, func(i int, _ struct{}) { visits[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestMapSeededRangeWindowing(t *testing.T) {
	// Streaming a range through windows must reproduce the one-shot
	// call exactly, as long as windows lie on the chunk grid.
	const n = 7*ChunkSize + 13
	ctx := context.Background()
	fn := func(i int, rng *rand.Rand, _ struct{}) float64 { return float64(i) + rng.Float64() }
	whole, _ := MapSeeded(ctx, 0, n, 4, 99, noState, fn)
	var streamed []float64
	window := 2 * ChunkSize
	for lo := 0; lo < n; lo += window {
		hi := lo + window
		if hi > n {
			hi = n
		}
		part, err := MapSeeded(ctx, lo, hi, 3, 99, noState, fn)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, part...)
	}
	if len(streamed) != len(whole) {
		t.Fatalf("len = %d, want %d", len(streamed), len(whole))
	}
	for i := range whole {
		if streamed[i] != whole[i] {
			t.Fatalf("streamed[%d] = %v, want %v", i, streamed[i], whole[i])
		}
	}
}

func TestChunkSeedSpread(t *testing.T) {
	seen := make(map[int64]int)
	for seed := int64(0); seed < 4; seed++ {
		for c := 0; c < 256; c++ {
			s := chunkSeed(seed, c)
			if prev, dup := seen[s]; dup {
				t.Fatalf("chunkSeed collision: %d (chunk %d)", s, prev)
			}
			seen[s] = c
		}
	}
}

// TestForPropagatesPanic: a panic in any worker — or on the serial
// path — is re-raised in the caller.
func TestForPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want the worker's panic", workers, r)
				}
			}()
			_, _ = Map(context.Background(), 1000, workers, func(i int) int {
				if i == 777 {
					panic("boom")
				}
				return i
			})
		}()
	}
}
