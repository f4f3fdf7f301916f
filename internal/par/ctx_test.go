package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// ctx_test.go pins the cancellation contract of the pool entry points:
// prompt ctx.Err() on cancel, no goroutine leaks, and — the
// load-bearing half — completed runs bit-identical to a serial loop at
// every worker count.

func TestRunCtxNilContextCompletes(t *testing.T) {
	var visits atomic.Int64
	if err := RunWith(nil, 1000, 4, noState, func(int, struct{}) { visits.Add(1) }); err != nil {
		t.Fatalf("err = %v", err)
	}
	if visits.Load() != 1000 {
		t.Errorf("visits = %d", visits.Load())
	}
}

// TestRunCtxPreCanceled: every map entry point returns the context's
// error without running an index when ctx is already canceled.
func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var visits atomic.Int64
	count := func() int { visits.Add(1); return 0 }
	_, errMap := Map(ctx, 10000, 4, func(int) int { return count() })
	_, errWith := MapWith(ctx, 10000, 4, noState, func(int, struct{}) int { return count() })
	_, errSeeded := MapSeeded(ctx, 0, 10000, 4, 7, noState, func(int, *rand.Rand, struct{}) int { return count() })
	for name, err := range map[string]error{"Map": errMap, "MapWith": errWith, "MapSeeded": errSeeded} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
	if visits.Load() != 0 {
		t.Errorf("pre-canceled runs visited %d indices, want 0", visits.Load())
	}
}

// TestRunCtxCanceledMidRun cancels from inside fn and checks that the
// run stops granting chunks promptly (the claimed chunks drain, but
// nothing close to the full range executes) and returns ctx.Err().
func TestRunCtxCanceledMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var visits atomic.Int64
		const n = 1 << 20
		err := RunWith(ctx, n, workers, noState, func(int, struct{}) {
			if visits.Add(1) == 10 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight chunks finish (up to workers*ChunkSize items plus
		// the triggering chunk); anything well under n proves the grant
		// loop stopped.
		if v := visits.Load(); v >= n/2 {
			t.Errorf("workers=%d: %d of %d indices ran after cancel", workers, v, n)
		}
		cancel()
	}
}

// TestRunCtxNoGoroutineLeak: a canceled run must not leave pool
// workers behind.
func TestRunCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var visits atomic.Int64
		_ = RunWith(ctx, 1<<18, 8, noState, func(int, struct{}) {
			if visits.Add(1) == 5 {
				cancel()
			}
		})
		cancel()
	}
	// Give exiting workers a beat, then compare against the baseline
	// with slack for unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, started with %d", g, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapCtxMatchesMapEveryWorkerCount is the determinism half of the
// contract: a completed Map run is identical to a plain serial loop
// at every worker count.
func TestMapCtxMatchesMapEveryWorkerCount(t *testing.T) {
	const n = 5000
	fn := func(i int) int { return i*i - 7*i }
	want := serialMap(n, fn)
	for _, workers := range []int{1, 2, 3, 5, 8, 16} {
		got, err := Map(context.Background(), n, workers, fn)
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapSeededCtxMatchesMapSeeded pins the seeded variant against its
// serial definition: chunk c of the absolute grid draws from
// rand.NewSource(chunkSeed(seed, c)), its indices in order, at every
// worker count.
func TestMapSeededCtxMatchesMapSeeded(t *testing.T) {
	const n, seed = 3000, 99
	fn := func(i int, rng *rand.Rand, _ struct{}) float64 { return float64(i) + rng.Float64() }
	want := make([]float64, n)
	for lo := 0; lo < n; lo += ChunkSize {
		rng := rand.New(rand.NewSource(chunkSeed(seed, lo/ChunkSize)))
		for i := lo; i < n && i < lo+ChunkSize; i++ {
			want[i] = fn(i, rng, struct{}{})
		}
	}
	for _, workers := range []int{1, 3, 7, 12} {
		got, err := MapSeeded(context.Background(), 0, n, workers, seed, noState, fn)
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapCtxCanceledKeepsLength: cancellation truncates which chunks
// ran, never the slice shape callers index into.
func TestMapCtxCanceledKeepsLength(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var visits atomic.Int64
	const n = 1 << 19
	out, err := Map(ctx, n, 4, func(i int) int {
		if visits.Add(1) == 3 {
			cancel()
		}
		return i + 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(out) != n {
		t.Fatalf("len = %d, want %d", len(out), n)
	}
	// Every slot is either untouched (zero) or fully computed.
	for i, v := range out {
		if v != 0 && v != i+1 {
			t.Fatalf("out[%d] = %d: neither zero nor fn(i)", i, v)
		}
	}
}

// TestRunCtxCanceledCounter: aborted runs are visible in the pool
// metrics.
func TestRunCtxCanceledCounter(t *testing.T) {
	before := poolCanceled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = RunWith(ctx, 100, 2, noState, func(int, struct{}) {})
	if got := poolCanceled.Value(); got != before+1 {
		t.Errorf("par_runs_canceled_total = %d, want %d", got, before+1)
	}
}

// TestMapSeededRangeCtxDeadline exercises deadline-based cancellation
// on the windowed entry point used by the traceroute campaign.
func TestMapSeededRangeCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := MapSeeded(ctx, 0, 1<<19, 4, 7, noState, func(i int, _ *rand.Rand, _ struct{}) int {
		time.Sleep(10 * time.Microsecond)
		return i
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
