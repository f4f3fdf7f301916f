package jobs

import (
	"context"
	"sync"
	"time"

	"intertubes/internal/scenario"
)

// job.go holds the per-job record: lifecycle state, the completed-cell
// set, and the pub/sub fan-out that feeds the SSE streaming endpoint.

// State is a job's lifecycle position. pending → running → one of
// done/failed/canceled; a store shutdown parks a running job back at
// pending (checkpointed, resumable) rather than inventing a distinct
// interrupted state.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) valid() bool {
	switch s {
	case StatePending, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// terminal reports whether the job has finished for good; only
// terminal states stop the store from scheduling the job again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Terminal reports whether the job has finished for good (done,
// failed, or canceled). Exported for consumers deciding whether a
// job's artifacts are final — e.g. the server withholds caching
// headers from partial results.
func (s State) Terminal() bool {
	return s.terminal()
}

// Status is the externally visible snapshot of one job, served by
// GET /api/jobs and GET /api/jobs/{id}.
type Status struct {
	ID       string            `json:"id"`
	Spec     scenario.GridSpec `json:"spec"`
	SpecHash string            `json:"specHash"`
	// Baseline is the digest of the baseline the job sweeps
	// (scenario.Engine.Baseline).
	Baseline  string `json:"baseline"`
	State     State  `json:"state"`
	Err       string `json:"err,omitempty"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	// Resumed counts cells recovered from a checkpoint rather than
	// evaluated by this process — observability for the resume path.
	Resumed  int       `json:"resumed,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
}

// Event is one streaming update: a state transition and/or a chunk of
// freshly completed cells. The SSE endpoint relays these verbatim.
type Event struct {
	JobID     string `json:"jobId"`
	State     State  `json:"state"`
	Err       string `json:"err,omitempty"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	// Cells carries the cells completed since the previous event (only
	// on chunk events; state-transition events leave it empty).
	Cells []scenario.CellOutcome `json:"cells,omitempty"`
}

// job is the store-internal mutable record. All fields are guarded by
// the store mutex except the cancel func (immutable once set) and the
// subscriber list (own mutex, so publishing never contends with the
// store lock).
type job struct {
	id       string
	geom     scenario.GridGeom
	baseline string
	state    State
	err      string
	// cells maps plan index → completed outcome. Canceled evaluations
	// never land here. A done job whose terminal checkpoint is on disk
	// drops the map (nil) and keeps only its size in diskCells; its
	// artifact is then rendered from the checkpoint.
	cells     map[int]scenario.CellOutcome
	diskCells int
	resumed   int

	created  time.Time
	started  time.Time
	finished time.Time

	// cancel tears down the per-job context with errJobCanceled; set
	// when the run starts, nil while pending.
	cancel context.CancelCauseFunc
	// canceled latches a user cancel requested before/while running so
	// the runner can honor it even between batches.
	canceled bool

	subMu sync.Mutex
	subs  map[chan Event]struct{}
}

// completed counts the job's completed cells, held in memory or only
// in its checkpoint.
func (j *job) completed() int {
	if j.cells == nil {
		return j.diskCells
	}
	return len(j.cells)
}

func (j *job) status() Status {
	return Status{
		ID:        j.id,
		Spec:      j.geom.Spec,
		SpecHash:  j.geom.Hash,
		Baseline:  j.baseline,
		State:     j.state,
		Err:       j.err,
		Total:     j.geom.Total,
		Completed: j.completed(),
		Resumed:   j.resumed,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// subscribe registers a buffered event channel. The returned cancel
// func is idempotent and safe to call concurrently with publishes.
func (j *job) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	j.subMu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	j.subMu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			j.subMu.Lock()
			delete(j.subs, ch)
			j.subMu.Unlock()
		})
	}
}

// publish fans an event out to every subscriber without blocking: a
// subscriber that cannot keep up drops events (SSE consumers
// re-synchronize from GET /api/jobs/{id} and the result endpoint, so
// a dropped chunk is lost progress detail, not lost data).
func (j *job) publish(ev Event) {
	j.subMu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.subMu.Unlock()
}

// closeSubs closes every subscriber channel; called exactly once when
// the job reaches a terminal state or the store shuts down.
func (j *job) closeSubs() {
	j.subMu.Lock()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.subMu.Unlock()
}

// jobIDKey marks contexts descending from a job run, so test fault
// hooks (Engine.SetEvalHook) can target job evaluations specifically
// while interactive scenario requests pass through untouched.
type jobIDKey struct{}

// JobIDFromContext reports the job ID the evaluation belongs to, if
// the context descends from a job run.
func JobIDFromContext(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(jobIDKey{}).(string)
	return id, ok
}
