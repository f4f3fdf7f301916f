package scenario

import (
	"container/list"
	"context"
	"sync"

	"intertubes/internal/obs"
)

// cache.go is the serving layer around the engine: a bounded LRU
// keyed by scenario content hash, with singleflight deduplication so
// that N concurrent identical queries cost exactly one evaluation. One
// cache wraps one engine, and an engine has one baseline, so the hash
// alone names a result. Every counter is an obs metric, so /metrics
// exposes hit rate, evictions, and coalesced queries.

var (
	cacheHits = obs.GetCounter("scenario_cache_hits_total",
		"Scenario queries answered from the result cache.")
	cacheMisses = obs.GetCounter("scenario_cache_misses_total",
		"Scenario queries that required an evaluation.")
	cacheEvictions = obs.GetCounter("scenario_cache_evictions_total",
		"Cached scenario results evicted by the LRU bound.")
	cacheCoalesced = obs.GetCounter("scenario_singleflight_coalesced_total",
		"Scenario queries that joined an in-flight identical evaluation.")
	cacheSize = obs.GetGauge("scenario_cache_entries",
		"Scenario results currently cached.")
)

// DefaultCacheCapacity bounds the cache when the caller passes a
// non-positive capacity.
const DefaultCacheCapacity = 128

// Cache is a bounded, concurrency-safe scenario query service. Cached
// *Results are shared across callers and must be treated as
// immutable.
type Cache struct {
	eng *Engine
	cap int

	mu       sync.Mutex
	ll       *list.List // front = most recently used; values are *entry
	byKey    map[string]*list.Element
	inflight map[string]*flight
}

type entry struct {
	key string // the resolved scenario's hash
	res *Result
}

// flight is one in-progress evaluation. It runs on its own goroutine
// under a context detached from whichever caller happened to arrive
// first, so one caller hanging up can never poison the result the
// others receive. waiters counts the callers still interested; when
// the last one abandons the flight, cancel stops the evaluation at
// its next cancellation checkpoint.
type flight struct {
	done    chan struct{}
	res     *Result
	err     error
	panicV  any // captured evaluation panic, re-raised in each waiter
	cancel  context.CancelFunc
	waiters int // guarded by Cache.mu
}

// NewCache wraps an engine in a query cache holding at most capacity
// results (DefaultCacheCapacity if capacity <= 0).
func NewCache(eng *Engine, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		eng:      eng,
		cap:      capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Engine returns the wrapped engine.
func (c *Cache) Engine() *Engine { return c.eng }

// Eval resolves the scenario and returns its Result, from cache when
// the hash is known, joining an identical in-flight evaluation when
// one exists, and evaluating otherwise. Evaluation errors are
// propagated to every waiter and never cached.
//
// The evaluation itself runs under a context derived from the FIRST
// caller's values but not its cancellation: a leader that hangs up
// merely drops its claim on the flight, and followers still receive
// the real Result. Only when every waiter is gone is the evaluation
// canceled — and the flight is unregistered at that moment, so a
// caller arriving later starts fresh instead of inheriting a doomed
// flight.
func (c *Cache) Eval(ctx context.Context, sc Scenario) (*Result, error) {
	sc, err := Resolve(sc)
	if err != nil {
		return nil, err
	}
	key := sc.Hash()

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		cacheHits.Inc()
		obs.SpanFromContext(ctx).SetAttr("cache", "hit")
		return el.Value.(*entry).res, nil
	}
	if fl, ok := c.inflight[key]; ok {
		fl.waiters++
		c.mu.Unlock()
		cacheCoalesced.Inc()
		obs.SpanFromContext(ctx).SetAttr("cache", "coalesced")
		return c.wait(ctx, key, fl)
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.inflight[key] = fl
	c.mu.Unlock()

	cacheMisses.Inc()
	// The flight context keeps ctx's values (WithoutCancel), so the
	// engine's spans join the leader caller's recorded trace; only the
	// leader's trace carries the evaluation tree, which is truthful —
	// coalesced followers did not run it.
	obs.SpanFromContext(ctx).SetAttr("cache", "miss")
	go c.run(fctx, key, fl, sc)
	return c.wait(ctx, key, fl)
}

// run executes one flight and publishes its outcome. A panicking
// evaluation is captured here — the flight goroutine must not crash
// the process — and re-raised in every waiter by wait.
func (c *Cache) run(fctx context.Context, key string, fl *flight, sc Scenario) {
	defer func() {
		fl.panicV = recover()
		fl.cancel()
		c.mu.Lock()
		// Pointer compare: an abandoned flight may already have been
		// replaced by a newer one for the same key.
		if c.inflight[key] == fl {
			delete(c.inflight, key)
		}
		if fl.panicV == nil && fl.err == nil {
			// Cache even if every waiter gave up first but the
			// evaluation won the race and completed: the work is done
			// and the next query should be a hit.
			c.insert(key, fl.res)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.res, fl.err = c.eng.Evaluate(fctx, sc)
}

// wait blocks one caller on a flight it holds a claim on. If the
// caller's context ends first, the claim is dropped; dropping the last
// claim cancels the evaluation and unregisters the flight. A panic
// captured by run is re-raised here, in the waiter's own goroutine, so
// the server's panic containment sees it exactly as if the evaluation
// had run inline.
func (c *Cache) wait(ctx context.Context, key string, fl *flight) (*Result, error) {
	select {
	case <-fl.done:
		if fl.panicV != nil {
			panic(fl.panicV)
		}
		return fl.res, fl.err
	case <-ctx.Done():
		c.mu.Lock()
		fl.waiters--
		if fl.waiters == 0 {
			fl.cancel()
			if c.inflight[key] == fl {
				delete(c.inflight, key)
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// insert adds a result and evicts from the LRU tail past capacity.
// Caller holds c.mu.
func (c *Cache) insert(key string, res *Result) {
	if el, ok := c.byKey[key]; ok { // lost a benign race: refresh
		c.ll.MoveToFront(el)
		el.Value.(*entry).res = res
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry{key: key, res: res})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		cacheEvictions.Inc()
	}
	cacheSize.Set(float64(c.ll.Len()))
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Summary is one row of the cache listing.
type Summary struct {
	Hash string `json:"hash"`
	Name string `json:"name,omitempty"`
	// Perturbation headline.
	ConduitsCut   int      `json:"conduitsCut"`
	ISPsRemoved   []string `json:"ispsRemoved,omitempty"`
	ConduitsAdded int      `json:"conduitsAdded"`
	// MeanDisconnection is the after-column average of the
	// disconnection table.
	MeanDisconnection float64 `json:"meanDisconnection"`
}

// Entries lists the cached results, most recently used first.
func (c *Cache) Entries() []Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Summary, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, Summary{
			Hash:              e.res.Hash,
			Name:              e.res.Scenario.Name,
			ConduitsCut:       e.res.ConduitsCut,
			ISPsRemoved:       e.res.ISPsRemoved,
			ConduitsAdded:     e.res.ConduitsAdded,
			MeanDisconnection: e.res.MeanDisconnectionAfter(),
		})
	}
	return out
}
