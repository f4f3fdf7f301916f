package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestConcurrentGetsBuildOnce(t *testing.T) {
	var v Value[int]
	var builds atomic.Int32
	build := func(context.Context) (int, error) {
		builds.Add(1)
		return 7, nil
	}
	const n = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got, err := v.Get(context.Background(), build); got != 7 || err != nil {
				t.Errorf("Get = %d, %v; want 7, nil", got, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d concurrent Gets ran %d builds, want 1", n, b)
	}
}

func TestFailedBuildKeepsNothing(t *testing.T) {
	var v Value[string]
	boom := errors.New("boom")
	if _, err := v.Get(context.Background(), func(context.Context) (string, error) { return "partial", boom }); !errors.Is(err, boom) {
		t.Fatalf("failing build: err = %v, want %v", err, boom)
	}
	builds := 0
	got, err := v.Get(context.Background(), func(context.Context) (string, error) {
		builds++
		return "ok", nil
	})
	if got != "ok" || err != nil || builds != 1 {
		t.Fatalf("Get after a failed build = %q, %v after %d builds; want \"ok\", nil after 1", got, err, builds)
	}
}

func TestPanickingBuildReleasesLock(t *testing.T) {
	var v Value[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach the caller")
			}
		}()
		v.Get(context.Background(), func(context.Context) (int, error) { panic("mid-build") })
	}()
	got, err := v.Get(context.Background(), func(context.Context) (int, error) { return 3, nil })
	if got != 3 || err != nil {
		t.Fatalf("Get after a panicking build = %d, %v; want 3, nil", got, err)
	}
}

// TestCanceledLeaderDoesNotFailWaiter cancels the caller whose build
// is running while a second caller with a live context waits: the
// leader gets its own error, the waiter builds again and gets the
// value.
func TestCanceledLeaderDoesNotFailWaiter(t *testing.T) {
	var v Value[int]
	var builds atomic.Int32
	started := make(chan struct{})
	build := func(ctx context.Context) (int, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 9, nil
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := v.Get(leaderCtx, build)
		leaderErr <- err
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		got, err := v.Get(context.Background(), build)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- got
	}()
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if got := <-waiter; got != 9 {
		t.Fatalf("waiter got %d, want 9", got)
	}
	if b := builds.Load(); b != 2 {
		t.Fatalf("%d builds, want 2 (the canceled one and the waiter's)", b)
	}
}

func TestHitDoesNotAllocate(t *testing.T) {
	var v Value[[]int]
	build := func(context.Context) ([]int, error) { return []int{1, 2, 3}, nil }
	ctx := context.Background()
	v.Get(ctx, build)
	if a := testing.AllocsPerRun(100, func() { v.Get(ctx, build) }); a != 0 {
		t.Fatalf("a hit allocates %.1f times, want 0", a)
	}
}

func TestMapKeysAreIndependent(t *testing.T) {
	var m Map[int, int]
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := m.Get(ctx, 1, func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("key 1: err = %v, want %v", err, boom)
	}
	for key, want := range map[int]int{2: 20, 3: 30} {
		if got, err := m.Get(ctx, key, func(context.Context) (int, error) { return want, nil }); got != want || err != nil {
			t.Fatalf("key %d = %d, %v; want %d, nil", key, got, err, want)
		}
	}
	calls := 0
	for i := 0; i < 2; i++ {
		got, err := m.Get(ctx, 2, func(context.Context) (int, error) { calls++; return -1, nil })
		if got != 20 || err != nil {
			t.Fatalf("key 2 again = %d, %v; want the kept 20", got, err)
		}
	}
	got, err := m.Get(ctx, 1, func(context.Context) (int, error) { calls++; return 10, nil })
	if got != 10 || err != nil || calls != 1 {
		t.Fatalf("key 1 after its failure = %d, %v after %d builds; want 10, nil after 1", got, err, calls)
	}
}
