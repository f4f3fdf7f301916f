package scenario

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"intertubes/internal/obs"
	"intertubes/internal/par"
)

// sweep.go is the batch runner: evaluate a grid of scenarios over the
// internal/par worker pool. It honors the same determinism contract
// as the other hot paths — the returned slice is bit-identical for
// any worker count, because each evaluation is pure and results land
// at their input index (ordered reduce, never completion order).

// Outcome pairs one sweep slot with its evaluation error; exactly one
// of Result/Err is set. Canceled distinguishes a slot that never
// completed because the sweep's context ended — the evaluation either
// never started or was stopped mid-flight — from a deterministic
// evaluation failure. It is a stable machine-readable marker: the job
// store checkpoints failed slots (they fail identically on re-run)
// but re-runs canceled ones, without string-matching ctx.Err() text.
type Outcome struct {
	Result   *Result `json:"result,omitempty"`
	Err      string  `json:"err,omitempty"`
	Canceled bool    `json:"canceled,omitempty"`
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sweepProgress is the live completed/total ratio of the most recent
// sweep (1 when idle after a finished sweep, 0 before any). The
// disaster-grid sweep service polls this for progress bars.
var sweepProgress = obs.GetGauge("scenario_sweep_progress",
	"Fraction of the current scenario sweep completed (completed/total).")

// progressLogInterval rate-limits the sweep progress log line.
const progressLogInterval = time.Second

// Sweep evaluates every scenario against the engine, fanning out over
// up to workers goroutines (<= 0 means all CPUs). Outcomes are in
// input order; a failed scenario fails its slot, not the sweep.
//
// Canceling ctx stops the sweep at the next chunk grant; slots whose
// evaluation never ran (or was itself canceled mid-flight) report
// ctx.Err() in Outcome.Err, so the slice length always matches scs.
//
// Progress is observational only: workers bump an atomic counter
// feeding the scenario_sweep_progress gauge and a rate-limited slog
// line; completion order never influences where results land.
func Sweep(ctx context.Context, eng *Engine, scs []Scenario, workers int) []Outcome {
	ctx, sp := obs.Trace(ctx, "scenario.sweep")
	sp.SetWorkers(par.Workers(workers))
	sp.SetItems(int64(len(scs)))
	defer sp.End()
	// Pin one snapshot for the whole batch: every slot evaluates
	// against the same baseline even if SwapBaseline lands mid-sweep.
	snap := eng.snapshot()

	total := len(scs)
	var done atomic.Int64
	var lastLog atomic.Int64 // unix nanos of the last progress line
	if total > 0 {
		sweepProgress.Set(0)
		// Settle the gauge no matter how the sweep ends: a canceled
		// sweep must not leave a frozen partial fraction that reads as
		// forever-in-progress. 1 is the idle-after-a-sweep value the
		// completion path also converges to.
		defer sweepProgress.Set(1)
	}
	start := time.Now()
	progress := func() {
		n := done.Add(1)
		sweepProgress.Set(float64(n) / float64(total))
		if n == int64(total) {
			return // the completion line below covers the last slot
		}
		now := time.Now().UnixNano()
		last := lastLog.Load()
		if now-last < int64(progressLogInterval) || !lastLog.CompareAndSwap(last, now) {
			return
		}
		obs.Logger("scenario").Info("sweep progress",
			"completed", n, "total", total,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	}

	out, err := par.Map(ctx, total, workers, func(i int) Outcome {
		res, err := eng.evaluateOn(ctx, snap, scs[i])
		progress()
		if err != nil {
			return Outcome{Err: err.Error(), Canceled: isCancellation(err)}
		}
		return Outcome{Result: res}
	})
	if err != nil {
		canceled := isCancellation(err)
		for i := range out {
			if out[i].Result == nil && out[i].Err == "" {
				out[i] = Outcome{Err: err.Error(), Canceled: canceled}
			}
		}
	}
	if total > 0 {
		obs.Logger("scenario").Info("sweep finished",
			"completed", done.Load(), "total", total,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	}
	return out
}
