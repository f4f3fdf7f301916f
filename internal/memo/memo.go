// Package memo keeps lazily built values. A build runs under its
// caller's context and is kept only when it returns a nil error; after
// a failed, canceled or panicking build the next caller builds under
// its own context. Callers that arrive during a build wait for it.
package memo

import (
	"context"
	"sync"
	"sync/atomic"
)

// Value is one lazily built value; the zero Value is ready to use.
type Value[V any] struct {
	mu sync.Mutex
	p  atomic.Pointer[V]
}

// Get returns the kept value, building it with build under ctx when
// none is kept yet. A hit is one atomic load.
func (v *Value[V]) Get(ctx context.Context, build func(context.Context) (V, error)) (V, error) {
	if p := v.p.Load(); p != nil {
		return *p, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if p := v.p.Load(); p != nil {
		return *p, nil
	}
	x, err := build(ctx)
	if err != nil {
		var zero V
		return zero, err
	}
	v.p.Store(&x)
	return x, nil
}

// Map keeps one Value per key; the zero Map is ready to use.
type Map[K comparable, V any] struct {
	m sync.Map // K -> *Value[V]
}

// Get is Value.Get for key's value; keys build independently.
func (m *Map[K, V]) Get(ctx context.Context, key K, build func(context.Context) (V, error)) (V, error) {
	v, ok := m.m.Load(key)
	if !ok {
		v, _ = m.m.LoadOrStore(key, new(Value[V]))
	}
	return v.(*Value[V]).Get(ctx, build)
}
