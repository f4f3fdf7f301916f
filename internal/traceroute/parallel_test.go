package traceroute

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunWorkerInvariance is the determinism contract for the parallel
// campaign: every counter, attribution table, and retained sample must
// be identical for any worker count at a fixed seed.
func TestRunWorkerInvariance(t *testing.T) {
	res, _ := campaign(t)
	base, _ := Run(context.Background(), res, res.Map, Options{N: 6000, Seed: 11, Workers: 1})
	for _, workers := range []int{2, 5} {
		got, _ := Run(context.Background(), res, res.Map, Options{N: 6000, Seed: 11, Workers: workers})
		if got.Total != base.Total {
			t.Errorf("workers=%d: Total = %d, want %d", workers, got.Total, base.Total)
		}
		if got.Unattributed != base.Unattributed {
			t.Errorf("workers=%d: Unattributed = %d, want %d", workers, got.Unattributed, base.Unattributed)
		}
		if got.AttributionChecked != base.AttributionChecked || got.AttributionCorrect != base.AttributionCorrect {
			t.Errorf("workers=%d: attribution %d/%d, want %d/%d", workers,
				got.AttributionCorrect, got.AttributionChecked,
				base.AttributionCorrect, base.AttributionChecked)
		}
		if !reflect.DeepEqual(got.ConduitProbes, base.ConduitProbes) {
			t.Errorf("workers=%d: ConduitProbes diverge", workers)
		}
		if !reflect.DeepEqual(got.ISPConduits, base.ISPConduits) {
			t.Errorf("workers=%d: ISPConduits diverge", workers)
		}
		if !reflect.DeepEqual(got.InferredTenants, base.InferredTenants) {
			t.Errorf("workers=%d: InferredTenants diverge", workers)
		}
		if !reflect.DeepEqual(got.Samples, base.Samples) {
			t.Errorf("workers=%d: retained Samples diverge", workers)
		}
	}
}

// flipCtx is a context that turns canceled on a fixed poll: Err
// returns nil for its first `after` calls and context.Canceled from
// then on, so a test can cancel a run at a chosen point of its
// polling, whichever goroutine makes that poll.
type flipCtx struct {
	context.Context
	after int64
	polls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newFlipCtx(after int64) *flipCtx {
	return &flipCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.polls.Add(1) <= c.after {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestRunCanceled: a campaign whose ctx is canceled before it starts,
// or at a fixed poll in the middle (during the table build, the
// decisions or the synthesis windows, whichever reaches it), returns
// (nil, context.Canceled) and leaves none of its goroutines behind.
// scripts/verify.sh repeats it under the race detector.
func TestRunCanceled(t *testing.T) {
	res := campaignMap()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  func() context.Context
	}{
		{"pre-canceled", func() context.Context { return canceled }},
		{"first poll", func() context.Context { return newFlipCtx(0) }},
		{"poll 40", func() context.Context { return newFlipCtx(40) }},
		{"poll 400", func() context.Context { return newFlipCtx(400) }},
	} {
		for _, workers := range []int{1, 3} {
			before := runtime.NumGoroutine()
			ctx := tc.ctx()
			c, err := Run(ctx, res, res.Map, Options{N: 20000, Seed: 3, Workers: workers})
			if c != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, workers=%d: Run = %v, %v; want nil, context.Canceled", tc.name, workers, c, err)
			}
			if f, ok := ctx.(*flipCtx); ok && f.polls.Load() <= f.after {
				t.Fatalf("%s, workers=%d: Run returned after %d polls, before the flip", tc.name, workers, f.polls.Load())
			}
			waitForGoroutines(t, before)
		}
	}
}

// waitForGoroutines waits for the goroutine count to fall back to
// before, allowing exiting goroutines a moment to finish, and fails
// the test if it does not.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines = %d, started with %d\n%s", g, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
