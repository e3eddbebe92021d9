package experiments

import (
	"context"
	"errors"
	"sync"
)

// flight is a single-flight memo table: per key, at most one build runs
// at a time, and it runs outside every lock. Concurrent callers for the
// key wait on that build or on their own context. A successful build is
// memoized; an error reaches only that build's waiters, so the next call
// builds again. A build that panics releases its waiters with an error
// and the panic continues in the building goroutine. The zero value is
// ready to use.
type flight[K comparable, V any] struct {
	mu    sync.Mutex
	vals  map[K]V              //md:guardedby mu
	calls map[K]*flightCall[V] //md:guardedby mu
}

// flightCall is one build in flight; its result is set before done
// closes.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errBuildPanicked is what the waiters of a panicking build receive.
var errBuildPanicked = errors.New("experiments: memo build panicked")

// flightOutcome reports how a do call was answered.
type flightOutcome int

const (
	flightBuilt  flightOutcome = iota // this call ran the build
	flightMemo                        // a memoized success
	flightJoined                      // waited on another caller's build
)

// do returns key's value, running build in the calling goroutine when
// no success is memoized and no build is in flight. A caller that waits
// on another's build returns ctx.Err() if ctx ends first; the build
// carries on and memoizes for later callers.
func (f *flight[K, V]) do(ctx context.Context, key K, build func() (V, error)) (V, flightOutcome, error) {
	f.mu.Lock()
	if v, ok := f.vals[key]; ok {
		f.mu.Unlock()
		return v, flightMemo, nil
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, flightJoined, c.err
		case <-ctx.Done():
			var zero V
			return zero, flightJoined, ctx.Err()
		}
	}
	if f.calls == nil {
		f.vals = make(map[K]V)
		f.calls = make(map[K]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			c.err = errBuildPanicked
		}
		f.mu.Lock()
		delete(f.calls, key)
		if c.err == nil {
			f.vals[key] = c.val
		}
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = build()
	returned = true
	return c.val, flightBuilt, c.err
}

// drain removes every memoized value from the table and returns them.
// The table must be idle: no build in flight.
func (f *flight[K, V]) drain() []V {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]V, 0, len(f.vals))
	for key, v := range f.vals { //md:orderindependent values are released as a set
		out = append(out, v)
		delete(f.vals, key)
	}
	return out
}
