package par

import (
	"context"
	"sync/atomic"
	"testing"

	"intertubes/internal/obs"
)

// trace_test.go pins the flight-recorder propagation contract across
// chunk boundaries: a span opened inside a RunWith/MapWith body
// (the evaluation context is captured by the closure) must join the
// caller's recorded trace regardless of which worker goroutine claims
// the chunk. Run under -race this also exercises concurrent span
// folding from many workers into one trace.

func withFreshTraces(t *testing.T) *obs.TraceStore {
	t.Helper()
	st := obs.NewTraceStore(8, 8)
	old := obs.DefaultTraces
	obs.DefaultTraces = st
	t.Cleanup(func() { obs.DefaultTraces = old })
	return st
}

func TestRunCtxWithPropagatesTrace(t *testing.T) {
	st := withFreshTraces(t)
	ctx, root := obs.StartTrace(context.Background(), "sweep")
	id := root.TraceID()
	if id == "" {
		t.Fatal("no trace ID on root span")
	}

	const n = 200
	var mismatches atomic.Int64
	err := RunWith(ctx, n, 8, func() int { return 0 }, func(i int, _ int) {
		sctx, sp := obs.Trace(ctx, "sweep.item")
		if sp.TraceID() != id {
			mismatches.Add(1)
		}
		// A nested span inside the worker must also join.
		_, inner := obs.Trace(sctx, "sweep.item.inner")
		if inner.TraceID() != id {
			mismatches.Add(1)
		}
		inner.End()
		sp.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d spans lost the trace across chunk boundaries", m)
	}
	tr, ok := st.Get(id)
	if !ok {
		t.Fatal("trace not retained")
	}
	// Root + n item spans + n inner spans.
	if want := 1 + 2*n; len(tr.Spans) != want {
		t.Fatalf("recorded %d spans, want %d", len(tr.Spans), want)
	}
	var rootID uint32
	for _, s := range tr.Spans {
		if s.Name == "sweep" {
			rootID = s.SpanID
		}
	}
	seen := map[uint32]bool{}
	for _, s := range tr.Spans {
		if seen[s.SpanID] {
			t.Fatalf("duplicate span ID %d", s.SpanID)
		}
		seen[s.SpanID] = true
		if s.Name == "sweep.item" && s.ParentID != rootID {
			t.Errorf("item span parent = %d, want root %d", s.ParentID, rootID)
		}
	}
}

func TestMapCtxWithPropagatesTrace(t *testing.T) {
	st := withFreshTraces(t)
	ctx, root := obs.StartTrace(context.Background(), "map")
	id := root.TraceID()

	out, err := MapWith(ctx, 100, 8, func() int { return 0 }, func(i int, _ int) string {
		_, sp := obs.Trace(ctx, "map.item")
		defer sp.End()
		return sp.TraceID()
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	for i, got := range out {
		if got != id {
			t.Fatalf("item %d trace = %q, want %q", i, got, id)
		}
	}
	tr, ok := st.Get(id)
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(tr.Spans) != 101 {
		t.Fatalf("recorded %d spans, want 101", len(tr.Spans))
	}
}
