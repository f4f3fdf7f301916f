// Package par is the deterministic parallel-execution substrate for
// the analysis hot paths: an order-preserving chunked map over index
// ranges, a worker count resolved from runtime.NumCPU (overridable
// per call), and per-chunk math/rand streams derived from a campaign
// seed.
//
// The determinism contract is the whole point of the package: for any
// worker count — including 1 — the same inputs yield bit-identical
// outputs. Three properties make that hold:
//
//  1. Chunk boundaries lie on a fixed grid (ChunkSize) that depends on
//     nothing but the index range, so the set of chunks is identical
//     no matter how many workers claim them.
//  2. Each chunk's rand stream is derived from (seed, absolute chunk
//     index) alone — see ChunkSeed — and indices within a chunk run in
//     order, so hop-level randomness never depends on scheduling.
//  3. Results land at out[i]; reduction happens in index order in the
//     caller, never in completion order.
package par

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"intertubes/internal/obs"
)

// Pool metrics: observational only — the chunk grid, the per-chunk
// rand streams, and the claim order are untouched, so instrumentation
// cannot perturb the determinism contract. All observations are
// atomic adds; the metric handles resolve once at package init.
var (
	poolRuns = obs.GetCounter("par_pool_runs_total",
		"Invocations of the worker pool (one per parallel stage call).")
	poolChunks = obs.GetCounter("par_chunks_executed_total",
		"Chunks executed across all pool runs.")
	poolItems = obs.GetCounter("par_items_total",
		"Items processed across all pool runs.")
	poolWorkers = obs.GetGauge("par_workers",
		"Worker count of the most recent pool run.")
	poolWall = obs.GetHistogram("par_run_wall_seconds",
		"Wall time per pool run.", nil)
	poolBusy = obs.GetHistogram("par_run_busy_seconds",
		"Summed per-worker busy time per pool run.", nil)
	poolQueueWait = obs.GetHistogram("par_run_queue_wait_seconds",
		"Per-run idle capacity: workers x wall minus busy time.", nil)
	poolCanceled = obs.GetCounter("par_runs_canceled_total",
		"Pool runs aborted by context cancellation before all chunks ran.")
)

// ChunkSize is the number of consecutive indices a worker claims at a
// time. It is a constant, not a function of the worker count: chunk
// boundaries (and therefore the per-chunk rand streams of MapSeeded)
// must not move when the machine changes.
const ChunkSize = 64

// Workers resolves a requested worker count: n > 0 is honored as
// given, anything else means runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Chunks returns the half-open index ranges [lo, hi) into which
// [0, n) is split, in order. Exported so tests and fuzzers can check
// the boundary arithmetic directly.
func Chunks(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, (n+ChunkSize-1)/ChunkSize)
	for lo := 0; lo < n; lo += ChunkSize {
		hi := lo + ChunkSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// ChunkSeed derives the rand stream for one chunk from the campaign
// seed and the absolute chunk index, with a splitmix64 finalizer so
// that neighboring chunks get well-separated streams even for small
// seeds.
func ChunkSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// forChunks runs fn over every chunk without a cancellation context;
// it can never fail.
func forChunks(lo, hi, workers int, fn func(chunk, clo, chi int)) {
	_ = forChunksWorkerCtx(nil, lo, hi, workers, func(_, chunk, clo, chi int) {
		fn(chunk, clo, chi)
	})
}

// forChunksCtx is forChunksWorkerCtx for callers that do not need the
// worker id.
func forChunksCtx(ctx context.Context, lo, hi, workers int, fn func(chunk, clo, chi int)) error {
	return forChunksWorkerCtx(ctx, lo, hi, workers, func(_, chunk, clo, chi int) {
		fn(chunk, clo, chi)
	})
}

// forChunksWorkerCtx runs fn over every chunk of the absolute index
// range [lo, hi), claiming chunks from a shared atomic counter. The
// grid is absolute: a chunk's index is its position in [0, ...), so a
// caller processing a window [lo, hi) of a larger range sees the same
// chunk seeds the whole-range call would. fn receives the claiming
// worker's id in [0, workers) — stable for the lifetime of one call,
// carrying no cross-call meaning — plus the chunk index and the
// clipped [clo, chi) item range. A panic in any worker is re-raised
// in the caller.
//
// Cancellation is cooperative and checked only at chunk-grant
// boundaries: a claimed chunk always runs to completion, no further
// chunks are granted once ctx is canceled, and the call returns
// ctx.Err(). Because cancellation can only truncate the set of chunks
// executed — never reorder them or move the grid — a run that returns
// nil is bit-identical to the serial order. A nil ctx means the run
// cannot be canceled.
func forChunksWorkerCtx(ctx context.Context, lo, hi, workers int, fn func(worker, chunk, clo, chi int)) error {
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if hi <= lo {
		return ctxErr()
	}
	firstChunk := lo / ChunkSize
	lastChunk := (hi - 1) / ChunkSize
	nchunks := lastChunk - firstChunk + 1
	clip := func(c int) (int, int) {
		clo, chi := c*ChunkSize, (c+1)*ChunkSize
		if clo < lo {
			clo = lo
		}
		if chi > hi {
			chi = hi
		}
		return clo, chi
	}
	workers = Workers(workers)
	if workers > nchunks {
		workers = nchunks
	}
	poolRuns.Inc()
	poolWorkers.Set(float64(workers))
	start := time.Now()
	var busyNanos atomic.Int64
	run := func(worker, c int) {
		clo, chi := clip(c)
		t0 := time.Now()
		fn(worker, c, clo, chi)
		busyNanos.Add(int64(time.Since(t0)))
		poolChunks.Inc()
		poolItems.Add(int64(chi - clo))
	}
	finish := func() {
		wall := time.Since(start)
		busy := time.Duration(busyNanos.Load())
		poolWall.Observe(wall.Seconds())
		poolBusy.Observe(busy.Seconds())
		if wait := wall.Seconds()*float64(workers) - busy.Seconds(); wait > 0 {
			poolQueueWait.Observe(wait)
		} else {
			poolQueueWait.Observe(0)
		}
	}
	if workers <= 1 {
		for c := firstChunk; c <= lastChunk; c++ {
			if err := ctxErr(); err != nil {
				poolCanceled.Inc()
				finish()
				return err
			}
			run(0, c)
		}
		finish()
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicV   any
		canceled atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			if ctx != nil {
				// Adopt the caller's pprof labels (stage=, scenario_hash=)
				// so CPU profile samples from worker goroutines attribute
				// to the enclosing evaluation stage. Observational only.
				pprof.SetGoroutineLabels(ctx)
			}
			for {
				// Chunk-grant boundary: a canceled context stops the
				// claim loop, but the chunk being executed finishes.
				if canceled.Load() {
					return
				}
				if err := ctxErr(); err != nil {
					canceled.Store(true)
					return
				}
				c := firstChunk + int(next.Add(1)) - 1
				if c > lastChunk {
					return
				}
				run(worker, c)
			}
		}(w)
	}
	wg.Wait()
	finish()
	if panicV != nil {
		panic(panicV)
	}
	if canceled.Load() {
		poolCanceled.Inc()
		return ctxErr()
	}
	return nil
}

// For calls fn(i) for every i in [0, n) from up to `workers`
// goroutines (<= 0 means NumCPU) and returns once all calls finish.
// fn must not depend on cross-index ordering.
func For(n, workers int, fn func(i int)) {
	forChunks(0, n, workers, func(_, clo, chi int) {
		for i := clo; i < chi; i++ {
			fn(i)
		}
	})
}

// RunCtx is For with cooperative cancellation: fn is called for every
// i in [0, n) unless ctx is canceled first. Cancellation is observed
// only at chunk-grant boundaries, so a run that returns nil executed
// every index exactly once in the same chunk order as For — the
// worker-invariance contract is untouched. A canceled run returns
// ctx.Err() after its in-flight chunks drain; no goroutines outlive
// the call.
func RunCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return forChunksCtx(ctx, 0, n, workers, func(_, clo, chi int) {
		for i := clo; i < chi; i++ {
			fn(i)
		}
	})
}

// Map computes out[i] = fn(i) for i in [0, n) in parallel. The result
// is identical to a plain serial loop for any worker count, provided
// fn is pure per index.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapCtx is Map with cooperative cancellation. On a nil error the
// result is bit-identical to Map; on cancellation it returns the
// partially filled slice (slots whose chunks never ran keep their
// zero value) together with ctx.Err().
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, error) {
	if n <= 0 {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil
	}
	out := make([]T, n)
	err := RunCtx(ctx, n, workers, func(i int) { out[i] = fn(i) })
	return out, err
}

// MapSeeded is Map with a per-chunk *rand.Rand derived from seed:
// chunk c gets rand.New(rand.NewSource(ChunkSeed(seed, c))), and the
// indices of a chunk run in order sharing that stream. Because the
// chunk grid is fixed, the output is bit-identical for any worker
// count — the property the serial-equivalence suite pins.
func MapSeeded[T any](n, workers int, seed int64, fn func(i int, rng *rand.Rand) T) []T {
	return MapSeededRange(0, n, workers, seed, fn)
}

// MapSeededRange is MapSeeded over the absolute index window
// [lo, hi): out[i-lo] = fn(i, rng). Chunk indices (and so the rand
// streams) are positions on the absolute grid, which lets a caller
// stream a long range through a bounded buffer window by window and
// still produce exactly what one whole-range call would.
func MapSeededRange[T any](lo, hi, workers int, seed int64, fn func(i int, rng *rand.Rand) T) []T {
	out, _ := MapSeededRangeCtx[T](nil, lo, hi, workers, seed, fn)
	return out
}

// MapSeededCtx is MapSeeded with cooperative cancellation (see
// MapSeededRangeCtx).
func MapSeededCtx[T any](ctx context.Context, n, workers int, seed int64, fn func(i int, rng *rand.Rand) T) ([]T, error) {
	return MapSeededRangeCtx(ctx, 0, n, workers, seed, fn)
}

// MapSeededRangeCtx is MapSeededRange with cooperative cancellation.
// The chunk grid and per-chunk rand streams are exactly those of the
// uncancelled call, so a nil error guarantees a bit-identical result;
// cancellation only truncates which chunks ran (partial slots keep
// their zero value) and returns ctx.Err(). A nil ctx cannot cancel.
func MapSeededRangeCtx[T any](ctx context.Context, lo, hi, workers int, seed int64, fn func(i int, rng *rand.Rand) T) ([]T, error) {
	if hi <= lo {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil
	}
	out := make([]T, hi-lo)
	err := forChunksCtx(ctx, lo, hi, workers, func(chunk, clo, chi int) {
		rng := rand.New(rand.NewSource(ChunkSeed(seed, chunk)))
		for i := clo; i < chi; i++ {
			out[i-lo] = fn(i, rng)
		}
	})
	return out, err
}

// workerStates lazily constructs one S per worker id. Each worker
// only ever touches its own slot, so no locking is needed. State is
// scoped to a single pool run: it exists to amortize scratch memory
// (e.g. graph.Workspace), and because results must stay bit-identical
// at any worker count, fn must never let state influence its output —
// only its speed.
type workerStates[S any] struct {
	newState func() S
	states   []S
	made     []bool
}

func newWorkerStates[S any](workers int, newState func() S) *workerStates[S] {
	workers = Workers(workers)
	return &workerStates[S]{
		newState: newState,
		states:   make([]S, workers),
		made:     make([]bool, workers),
	}
}

func (ws *workerStates[S]) get(worker int) S {
	if !ws.made[worker] {
		ws.states[worker] = ws.newState()
		ws.made[worker] = true
	}
	return ws.states[worker]
}

// RunCtxWith is RunCtx with per-worker state: newState is called at
// most once per worker (lazily, on its first chunk), and fn receives
// the claiming worker's state alongside the index. The state must be
// pure scratch — reusable buffers, workspaces — that can change how
// fast fn runs but never what it returns; the worker-invariance
// contract of the pool is otherwise broken.
func RunCtxWith[S any](ctx context.Context, n, workers int, newState func() S, fn func(i int, state S)) error {
	states := newWorkerStates(workers, newState)
	return forChunksWorkerCtx(ctx, 0, n, workers, func(worker, _, clo, chi int) {
		s := states.get(worker)
		for i := clo; i < chi; i++ {
			fn(i, s)
		}
	})
}

// MapCtxWith is MapCtx with per-worker state (see RunCtxWith).
func MapCtxWith[S, T any](ctx context.Context, n, workers int, newState func() S, fn func(i int, state S) T) ([]T, error) {
	if n <= 0 {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil
	}
	out := make([]T, n)
	err := RunCtxWith(ctx, n, workers, newState, func(i int, s S) { out[i] = fn(i, s) })
	return out, err
}

// MapSeededRangeCtxWith is MapSeededRangeCtx with per-worker state
// (see RunCtxWith): the chunk grid and per-chunk rand streams are
// exactly those of the stateless call, so a nil error still guarantees
// a bit-identical result at any worker count.
func MapSeededRangeCtxWith[S, T any](ctx context.Context, lo, hi, workers int, seed int64, newState func() S, fn func(i int, rng *rand.Rand, state S) T) ([]T, error) {
	if hi <= lo {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil
	}
	states := newWorkerStates(workers, newState)
	out := make([]T, hi-lo)
	err := forChunksWorkerCtx(ctx, lo, hi, workers, func(worker, chunk, clo, chi int) {
		s := states.get(worker)
		rng := rand.New(rand.NewSource(ChunkSeed(seed, chunk)))
		for i := clo; i < chi; i++ {
			out[i-lo] = fn(i, rng, s)
		}
	})
	return out, err
}
