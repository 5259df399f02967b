package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// call is one in-flight execution that waiters are coalesced onto.
type call[V any] struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	val     V
	err     error
}

// Group is a cancellation-safe singleflight: concurrent Do calls with
// the same key share one execution. Unlike a sync.Once-per-key scheme,
// the execution is not owned by any single caller — it runs on its own
// goroutine under a context that is canceled only when every waiter
// has abandoned it. A caller whose context ends returns its ctx.Err()
// immediately while the computation keeps going for the remaining
// waiters; when the last waiter leaves, the computation is canceled and
// the key is released, so the next Do starts fresh instead of inheriting
// a doomed flight. Results are not retained across completions — pair
// Group with a cache keyed the same way (the service's response LRU,
// the figure session's result map) and store only complete results.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// Len returns the number of in-flight executions.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// Waiters returns how many callers are waiting on key's in-flight
// execution (0 if none is in flight). Used by tests to sequence
// join-then-cancel scenarios deterministically.
func (g *Group[V]) Waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// Do returns fn's result for key, executing it at most once across all
// concurrent callers. shared reports whether this caller joined an
// execution started by another (the service maps it to the "coalesced"
// cache state). On ctx cancellation Do returns ctx.Err() without
// waiting for fn; fn is only canceled when no waiter remains. A caller
// whose ctx has already ended neither starts nor joins an execution.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, shared bool, err error) {
	if err := ctx.Err(); err != nil {
		// Starting a flight here would race its result against ctx.Done
		// in the select below, so a dead caller could get a value.
		return v, false, err
	}
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*call[V]{}
	}
	c, joined := g.calls[key]
	if !joined {
		// The flight's context is detached from the creator's: any
		// waiter's deadline aborts only that waiter. Cancellation is by
		// refcount, through c.cancel when waiters hits zero.
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &call[V]{cancel: cancel, done: make(chan struct{})}
		g.calls[key] = c
		go func() {
			defer func() {
				if r := recover(); r != nil {
					c.err = fmt.Errorf("engine: flight %q panicked: %v\n%s", key, r, debug.Stack())
				}
				g.mu.Lock()
				if g.calls[key] == c {
					delete(g.calls, key)
				}
				g.mu.Unlock()
				cancel()
				close(c.done)
			}()
			c.val, c.err = fn(fctx)
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Last interested caller gone: stop the computation and
			// release the key so a later request restarts cleanly
			// rather than waiting on a canceled flight.
			c.cancel()
			if g.calls[key] == c {
				delete(g.calls, key)
			}
		}
		g.mu.Unlock()
		return v, joined, ctx.Err()
	}
}
