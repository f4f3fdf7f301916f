package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"intertubes/internal/obs"
)

// tracer.go is the benchmark's own span recorder for traced runs.
// Spans are taken only around public calls — the client operation,
// the handler wrapper around (*server.Server).ServeHTTP, job phases,
// and each Study accessor — and, for scenario requests, imported from
// the program's flight-recorder trace named by X-Trace-Id. Spans stay
// in memory and are written as JSON lines when the run ends. A nil
// *tracer records nothing, which is the untraced run.

type span struct {
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMs float64 `json:"startMs"` // offset from the tracer's origin
	DurMs   float64 `json:"durMs"`
}

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(op int64, name, parent string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent, StartMs: ms(start.Sub(t.origin)), DurMs: ms(dur)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs fn inside a span and returns its duration.
func (t *tracer) time(op int64, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(op, name, parent, start, d)
	return d
}

// addRecorded imports a program trace as children of parent: every
// recorded span keeps its own name, and its start is placed at the
// trace's wall start plus the recorded offset.
func (t *tracer) addRecorded(op int64, parent string, tr *obs.TraceRecord) {
	if t == nil || tr == nil {
		return
	}
	names := make(map[uint32]string, len(tr.Spans))
	for _, s := range tr.Spans {
		names[s.SpanID] = s.Name
	}
	for _, s := range tr.Spans {
		p := names[s.ParentID]
		if s.ParentID == 0 {
			p = parent
		}
		t.add(op, s.Name, p, tr.Start.Add(time.Duration(s.StartNs)), time.Duration(s.DurNs))
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opHeader carries the client operation id to the handler wrapper, so
// the server-side span joins its client span.
const opHeader = "X-Bench-Op"

// wrapped records a span around every ServeHTTP call whose request
// carries an operation id. The spans are also kept by op id so the
// client can subtract them from its own.
type wrapped struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	byOp map[int64]time.Duration
}

func wrapHandler(next http.Handler, tr *tracer) *wrapped {
	return &wrapped{next: next, tr: tr, byOp: make(map[int64]time.Duration)}
}

func (h *wrapped) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	h.tr.add(op, "server.ServeHTTP", "client.op", start, d)
	h.mu.Lock()
	h.byOp[op] = d
	h.mu.Unlock()
}

// take returns and forgets the handler span duration of op.
func (h *wrapped) take(op int64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.byOp[op]
	delete(h.byOp, op)
	return s, ok
}
