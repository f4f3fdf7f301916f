package par

import (
	"context"
	"math/rand"
	"testing"
)

// chunks returns the half-open index ranges [lo, hi) into which
// [0, n) is split on the fixed grid, in order.
func chunks(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, (n+ChunkSize-1)/ChunkSize)
	for lo := 0; lo < n; lo += ChunkSize {
		out = append(out, [2]int{lo, min(lo+ChunkSize, n)})
	}
	return out
}

// FuzzChunks asserts the chunk-boundary arithmetic: every index range
// is covered exactly once, in order, by chunks that never exceed
// ChunkSize, and the parallel map built on those chunks agrees with a
// plain loop for the fuzzed worker count.
func FuzzChunks(f *testing.F) {
	f.Add(0, 1)
	f.Add(1, 1)
	f.Add(ChunkSize-1, 2)
	f.Add(ChunkSize, 3)
	f.Add(ChunkSize+1, 4)
	f.Add(5*ChunkSize+7, 9)
	f.Fuzz(func(t *testing.T, n, workers int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 14
		grid := chunks(n)
		next := 0
		for _, c := range grid {
			lo, hi := c[0], c[1]
			if lo != next {
				t.Fatalf("chunk starts at %d, want %d (gap or overlap)", lo, next)
			}
			if hi <= lo {
				t.Fatalf("empty chunk [%d,%d)", lo, hi)
			}
			if hi-lo > ChunkSize {
				t.Fatalf("chunk [%d,%d) exceeds ChunkSize", lo, hi)
			}
			if lo%ChunkSize != 0 {
				t.Fatalf("chunk start %d off the fixed grid", lo)
			}
			next = hi
		}
		if next != n && !(n == 0 && len(grid) == 0) {
			t.Fatalf("chunks cover [0,%d), want [0,%d)", next, n)
		}

		w := workers%16 - 2 // include <=0 (NumCPU)
		fn := func(i int, rng *rand.Rand, _ struct{}) int64 { return int64(i) ^ rng.Int63() }
		got, err := MapSeeded(context.Background(), 0, n, w, int64(n)*7919, noState, fn)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := MapSeeded(context.Background(), 0, n, 1, int64(n)*7919, noState, fn)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("out[%d] differs across worker counts", i)
			}
		}
	})
}
