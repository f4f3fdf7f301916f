package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// trace.go implements the stage tracer: Trace opens a span, End
// closes it and folds it into the process-global sink, from which
// Study.BuildReport renders the per-stage build report. Spans also
// feed the stage_duration_seconds / stage_items_total metrics, so the
// same data reaches /metrics.

// Span is one in-flight timed stage. A Span is owned by the goroutine
// that opened it; SetItems/SetWorkers/SetAttr/Event/End must not race.
type Span struct {
	// Name identifies the stage ("study.campaign",
	// "traceroute.synthesize", ...). Spans with equal names aggregate
	// into one report row.
	Name string
	// Parent is the name of the enclosing span, resolved from the
	// context passed to Trace ("" at the root).
	Parent string

	start   time.Time
	items   int64
	workers int
	sink    *Sink
	ended   bool

	// Flight-recorder state: nil rec means the span is outside any
	// recorded trace and every recorder entry point is a no-op.
	rec      *traceRec
	spanID   uint32
	parentID uint32
	root     bool
	attrs    []Attr
	events   []Event
}

type spanCtxKey struct{}

// Trace opens a span named name. The parent is taken from ctx (the
// span most recently opened through Trace on that context chain); the
// returned context carries the new span so nested stages link to it.
// When the parent belongs to a recorded trace the new span joins it,
// inheriting the trace and getting a fresh span ID; otherwise the span
// is aggregate-only. Spans report to the DefaultSink.
func Trace(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := &Span{Name: name, start: time.Now(), sink: DefaultSink}
	if p, ok := ctx.Value(spanCtxKey{}).(*Span); ok && p != nil {
		sp.Parent = p.Name
		if p.rec != nil {
			sp.rec = p.rec
			sp.parentID = p.spanID
			sp.spanID = p.rec.nextID.Add(1)
		}
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// SpanFromContext returns the span most recently opened through Trace
// on this context chain, or nil. Useful to attach attributes (a cache
// outcome, say) to the caller's span from a callee that doesn't open
// its own.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// TraceID returns the ID of the recorded trace this span belongs to,
// or "" when the span is not being recorded.
func (s *Span) TraceID() string {
	if s == nil || s.rec == nil {
		return ""
	}
	return s.rec.idStr
}

// SetAttr attaches a key/value attribute to the span. No-op (and
// alloc-free) when the span is not being recorded.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.rec == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt attaches an integer attribute to the span. No-op when the
// span is not being recorded.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil || s.rec == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
}

// Event records a point-in-time annotation inside the span, stamped
// with its offset from the span start. No-op when not recorded.
func (s *Span) Event(name string) {
	if s == nil || s.rec == nil {
		return
	}
	s.events = append(s.events, Event{Name: name, AtNs: time.Since(s.start).Nanoseconds()})
}

// SetItems records how many items the stage processed (probes routed,
// conduits scanned, pairs computed, ...).
func (s *Span) SetItems(n int64) {
	if s != nil {
		s.items = n
	}
}

// SetWorkers records the worker count the stage fanned out over.
func (s *Span) SetWorkers(n int) {
	if s != nil {
		s.workers = n
	}
}

// End closes the span: the duration is computed, the span is folded
// into the sink, and the stage metrics are updated. End is idempotent
// and nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	d := time.Since(s.start)
	s.sink.record(s, d)
	h := GetHistogram("stage_duration_seconds",
		"Wall time of each build/analysis stage.", nil,
		L("stage", s.Name))
	if s.rec != nil {
		h.ObserveExemplar(d.Seconds(), s.rec.idStr)
		s.rec.fold(s, d)
	} else {
		h.Observe(d.Seconds())
	}
	if s.items > 0 {
		GetCounter("stage_items_total",
			"Items processed by each build/analysis stage.",
			L("stage", s.Name)).Add(s.items)
	}
}

// StageStats is the aggregate of every ended span sharing one name.
type StageStats struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Calls   int64  `json:"calls"`
	TotalNs int64  `json:"totalNs"`
	Items   int64  `json:"items"`
	// Workers is the worker count most recently reported for the
	// stage (0 when the stage never fans out).
	Workers int `json:"workers,omitempty"`
}

// Total returns the accumulated wall time.
func (s StageStats) Total() time.Duration { return time.Duration(s.TotalNs) }

// Sink aggregates ended spans by stage name, preserving first-seen
// order for reporting.
type Sink struct {
	mu     sync.Mutex
	stages map[string]*StageStats
	order  []string
}

// NewSink returns an empty sink.
func NewSink() *Sink {
	return &Sink{stages: make(map[string]*StageStats)}
}

// DefaultSink is the process-global sink every Trace span reports to.
var DefaultSink = NewSink()

func (k *Sink) record(sp *Span, d time.Duration) {
	k.mu.Lock()
	defer k.mu.Unlock()
	st := k.stages[sp.Name]
	if st == nil {
		st = &StageStats{Name: sp.Name, Parent: sp.Parent}
		k.stages[sp.Name] = st
		k.order = append(k.order, sp.Name)
	}
	if st.Parent == "" {
		st.Parent = sp.Parent
	}
	st.Calls++
	st.TotalNs += int64(d)
	st.Items += sp.items
	if sp.workers > 0 {
		st.Workers = sp.workers
	}
}

// Reset clears the sink (tests).
func (k *Sink) Reset() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.stages = make(map[string]*StageStats)
	k.order = nil
}

// Snapshot returns the aggregated stages in first-seen order.
func (k *Sink) Snapshot() []StageStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]StageStats, 0, len(k.order))
	for _, name := range k.order {
		out = append(out, *k.stages[name])
	}
	return out
}

// Report renders the build report: one row per stage with wall time,
// share of the root total, items, and throughput. Children are listed
// under their parent, indented.
func (k *Sink) Report() string {
	stages := k.Snapshot()
	if len(stages) == 0 {
		return "build report: no stages recorded\n"
	}
	// Root total: the denominator for the % column is the sum over
	// parentless stages, so nested spans don't double-count.
	var rootTotal time.Duration
	for _, st := range stages {
		if st.Parent == "" {
			rootTotal += st.Total()
		}
	}
	children := make(map[string][]StageStats)
	for _, st := range stages {
		if st.Parent != "" {
			children[st.Parent] = append(children[st.Parent], st)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "build report (%s total across %d stages)\n",
		rootTotal.Round(time.Millisecond), len(stages))
	fmt.Fprintf(&b, "  %-34s %6s %12s %7s %12s %12s %8s\n",
		"stage", "calls", "wall", "%", "items", "items/s", "workers")
	var emit func(st StageStats, depth int)
	emit = func(st StageStats, depth int) {
		name := strings.Repeat("  ", depth) + st.Name
		pct := 0.0
		if rootTotal > 0 {
			pct = 100 * float64(st.TotalNs) / float64(rootTotal)
		}
		ips := "-"
		if st.Items > 0 && st.TotalNs > 0 {
			ips = fmt.Sprintf("%.0f", float64(st.Items)/st.Total().Seconds())
		}
		items := "-"
		if st.Items > 0 {
			items = fmt.Sprintf("%d", st.Items)
		}
		workers := "-"
		if st.Workers > 0 {
			workers = fmt.Sprintf("%d", st.Workers)
		}
		fmt.Fprintf(&b, "  %-34s %6d %12s %6.1f%% %12s %12s %8s\n",
			name, st.Calls, st.Total().Round(time.Microsecond), pct, items, ips, workers)
		kids := children[st.Name]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].TotalNs > kids[j].TotalNs })
		for _, kid := range kids {
			emit(kid, depth+1)
		}
	}
	seen := make(map[string]bool)
	for _, st := range stages {
		if st.Parent == "" && !seen[st.Name] {
			seen[st.Name] = true
			emit(st, 0)
		}
	}
	// Stages whose parent never reported (possible when a nested stage
	// runs without its enclosing span): list them flat so nothing is
	// silently dropped.
	for _, st := range stages {
		if st.Parent != "" {
			if _, ok := k.lookup(st.Parent); !ok {
				emit(st, 0)
			}
		}
	}
	return b.String()
}

func (k *Sink) lookup(name string) (StageStats, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	st, ok := k.stages[name]
	if !ok {
		return StageStats{}, false
	}
	return *st, true
}

// Report renders the DefaultSink.
func Report() string { return DefaultSink.Report() }

// Snapshot returns the DefaultSink's aggregated stages.
func Snapshot() []StageStats { return DefaultSink.Snapshot() }
