package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// recorder.go is the per-evaluation flight recorder: StartTrace opens
// a root span with a fresh trace ID, every span opened through Trace
// on that context chain joins the same trace (inheriting a span ID and
// parent span ID), and when the root span ends the completed span tree
// is folded into a bounded TraceStore. The store's retention policy
// always keeps the N most recent and the N slowest traces, so "why was
// that evaluation slow" stays answerable after the fact.
//
// The cost discipline mirrors the metrics registry: when recording is
// disabled (store disabled, or the span is outside any recorded
// trace), every recorder entry point is a nil-check and nothing
// allocates — guarded by alloc_test.go. The enabled path pays one
// small record per span, appended under the trace's own mutex (spans
// from par worker goroutines end concurrently), never a global lock.

var tracesRecorded = GetCounter("traces_recorded_total",
	"Completed traces folded into the flight-recorder store.")

// Attr is one structured key/value attribute attached to a span
// ("outcome"="reused", "touched"="3").
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time annotation inside a span, stamped with its
// offset from the span's start.
type Event struct {
	Name string `json:"name"`
	AtNs int64  `json:"atNs"`
}

// SpanRecord is one completed span of a recorded trace. Span IDs are
// assigned per trace, root first (span 1, parent 0).
type SpanRecord struct {
	SpanID   uint32  `json:"spanId"`
	ParentID uint32  `json:"parentId,omitempty"`
	Name     string  `json:"name"`
	StartNs  int64   `json:"startNs"` // offset from the trace start
	DurNs    int64   `json:"durNs"`
	Items    int64   `json:"items,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Events   []Event `json:"events,omitempty"`
}

// TraceRecord is one completed trace: the root span's identity plus
// every span that ended before the root did, sorted by start offset.
// Records are immutable once in the store; treat them as read-only.
type TraceRecord struct {
	ID    string       `json:"id"`
	Root  string       `json:"root"`
	Start time.Time    `json:"start"`
	DurNs int64        `json:"durNs"`
	Spans []SpanRecord `json:"spans"`
}

// TraceSummary is one row of the store index.
type TraceSummary struct {
	ID    string    `json:"id"`
	Root  string    `json:"root"`
	Start time.Time `json:"start"`
	DurNs int64     `json:"durNs"`
	Spans int       `json:"spans"`
	// Slowest marks traces held by the slowest-N retention set (a
	// trace can be both recent and slowest).
	Slowest bool `json:"slowest,omitempty"`
}

// traceRec is the in-flight accumulation of one recorded trace. Spans
// fold into it as they end; the root span's End seals it and ships the
// TraceRecord to the store. Spans that end after the seal are dropped
// (an abandoned singleflight evaluation outliving its caller).
type traceRec struct {
	store  *TraceStore
	idStr  string
	start  time.Time
	nextID atomic.Uint32

	mu     sync.Mutex
	sealed bool
	spans  []SpanRecord
}

func (r *traceRec) fold(s *Span, d time.Duration) {
	sr := SpanRecord{
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.Name,
		StartNs:  s.start.Sub(r.start).Nanoseconds(),
		DurNs:    int64(d),
		Items:    s.items,
		Workers:  s.workers,
		Attrs:    s.attrs,
		Events:   s.events,
	}
	r.mu.Lock()
	if !r.sealed {
		r.spans = append(r.spans, sr)
	}
	r.mu.Unlock()
	if s.root {
		r.seal(d)
	}
}

// seal snapshots the span set, sorts it into a stable tree order
// (start offset, then span ID), and hands the record to the store.
func (r *traceRec) seal(rootDur time.Duration) {
	r.mu.Lock()
	r.sealed = true
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	root := ""
	for i := range spans {
		if spans[i].SpanID == 1 {
			root = spans[i].Name
			break
		}
	}
	r.store.add(&TraceRecord{
		ID:    r.idStr,
		Root:  root,
		Start: r.start,
		DurNs: int64(rootDur),
		Spans: spans,
	})
}

// Trace IDs: a per-process random salt (crypto/rand, read once at
// init) mixed with an atomic counter through a splitmix64 finalizer.
// Unique within a process run, unguessable enough to dedupe across
// restarts, and never touching math/rand's global stream.
var (
	traceIDCounter atomic.Uint64
	traceIDSalt    = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0x9E3779B97F4A7C15 // deterministic fallback; IDs stay unique per process
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

func newTraceID() string {
	z := traceIDSalt + traceIDCounter.Add(1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return strconv.FormatUint(z, 16)
}

// TraceStore is the bounded flight-recorder sink. Retention keeps two
// overlapping sets: the capRecent most recently completed traces (a
// FIFO window) and the capSlow slowest ever seen since the last Reset
// (a min-ordered board an incoming trace must beat). Lookups scan both
// sets — capacities are small by design.
type TraceStore struct {
	enabled atomic.Bool

	mu        sync.Mutex
	capRecent int
	capSlow   int
	recent    []*TraceRecord // oldest first
	slow      []*TraceRecord // ascending DurNs; [0] is the one to beat
}

// NewTraceStore returns an enabled store retaining up to recent
// most-recent and slowest slowest traces (minimum 1 each).
func NewTraceStore(recent, slowest int) *TraceStore {
	if recent < 1 {
		recent = 1
	}
	if slowest < 1 {
		slowest = 1
	}
	st := &TraceStore{capRecent: recent, capSlow: slowest}
	st.enabled.Store(true)
	return st
}

// DefaultTraces is the process-global flight recorder StartTrace
// samples into. Enabled by default; SetEnabled(false) turns the whole
// recording path into nil-checks.
var DefaultTraces = NewTraceStore(32, 32)

// Enabled reports whether new traces are being recorded.
func (st *TraceStore) Enabled() bool { return st.enabled.Load() }

// SetEnabled flips recording. Disabling does not drop retained traces.
func (st *TraceStore) SetEnabled(on bool) { st.enabled.Store(on) }

// Reset drops every retained trace (tests).
func (st *TraceStore) Reset() {
	st.mu.Lock()
	st.recent = nil
	st.slow = nil
	st.mu.Unlock()
}

func (st *TraceStore) add(tr *TraceRecord) {
	tracesRecorded.Inc()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.recent = append(st.recent, tr)
	if len(st.recent) > st.capRecent {
		n := copy(st.recent, st.recent[1:])
		st.recent[n] = nil
		st.recent = st.recent[:n]
	}
	// Slowest board: insert in ascending duration order, evict the
	// fastest when over capacity.
	i := sort.Search(len(st.slow), func(i int) bool { return st.slow[i].DurNs >= tr.DurNs })
	st.slow = append(st.slow, nil)
	copy(st.slow[i+1:], st.slow[i:])
	st.slow[i] = tr
	if len(st.slow) > st.capSlow {
		n := copy(st.slow, st.slow[1:])
		st.slow[n] = nil
		st.slow = st.slow[:n]
	}
}

// Get returns the retained trace with the given ID.
func (st *TraceStore) Get(id string) (*TraceRecord, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, tr := range st.recent {
		if tr.ID == id {
			return tr, true
		}
	}
	for _, tr := range st.slow {
		if tr.ID == id {
			return tr, true
		}
	}
	return nil, false
}

// Len returns the number of distinct retained traces.
func (st *TraceStore) Len() int { return len(st.Index()) }

// Index lists the retained traces, newest first, deduplicated across
// the two retention sets; traces on the slowest board carry Slowest.
func (st *TraceStore) Index() []TraceSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	slowest := make(map[string]bool, len(st.slow))
	for _, tr := range st.slow {
		slowest[tr.ID] = true
	}
	seen := make(map[string]bool, len(st.recent)+len(st.slow))
	out := make([]TraceSummary, 0, len(st.recent)+len(st.slow))
	emit := func(tr *TraceRecord) {
		if seen[tr.ID] {
			return
		}
		seen[tr.ID] = true
		out = append(out, TraceSummary{
			ID:      tr.ID,
			Root:    tr.Root,
			Start:   tr.Start,
			DurNs:   tr.DurNs,
			Spans:   len(tr.Spans),
			Slowest: slowest[tr.ID],
		})
	}
	for i := len(st.recent) - 1; i >= 0; i-- {
		emit(st.recent[i])
	}
	for i := len(st.slow) - 1; i >= 0; i-- {
		emit(st.slow[i])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// StartTrace opens a span like Trace and, when the context is not
// already inside a recorded trace, starts recording a new trace into
// DefaultTraces (when enabled). The returned span is the trace root:
// its End seals the trace and folds it into the store. When recording
// is off this is exactly Trace — same allocations, empty TraceID.
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	ctx, sp := Trace(ctx, name)
	if sp.rec != nil {
		return ctx, sp // already recording: join the enclosing trace
	}
	st := DefaultTraces
	if st == nil || !st.enabled.Load() {
		return ctx, sp
	}
	rec := &traceRec{store: st, idStr: newTraceID(), start: sp.start}
	rec.nextID.Store(1)
	sp.rec = rec
	sp.root = true
	sp.spanID = 1
	return ctx, sp
}
