package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"gpuvar/internal/engine"
)

// cachedResponse is one fully rendered response body, ready to replay to
// any client that asks the same question. Bodies are immutable once
// stored; handlers must not append to them.
type cachedResponse struct {
	status      int
	contentType string
	body        []byte
}

// CacheStats is a point-in-time snapshot of a cache's counters, exposed
// by GET /v1/stats and /v1/healthz and asserted by the coalescing tests.
type CacheStats struct {
	Entries   int    `json:"entries"`
	InFlight  int    `json:"in_flight"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Aborted   uint64 `json:"aborted"`
	Evictions uint64 `json:"evictions"`
	// StaleEntries counts evicted responses still held for degraded
	// serving; StaleServed counts the times one stood in for a failed
	// recompute (the X-Degraded: stale responses).
	StaleEntries int    `json:"stale_entries"`
	StaleServed  uint64 `json:"stale_served"`
}

// resultCache is a fingerprint-keyed LRU of rendered responses with
// cancellation-safe singleflight coalescing (engine.Group): N concurrent
// requests for the same fingerprint cost one computation, later requests
// replay the stored bytes, and a caller abandoning the wait (deadline,
// client disconnect) neither kills the computation for the others nor
// poisons the key — the flight is canceled only when nobody is waiting,
// and only complete results are inserted. Errors are never cached (a
// failed computation should be retryable); every waiter of a failing
// flight gets its error.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // key → element whose Value is *lruEntry
	// The stale store holds responses the primary LRU evicted, for
	// degraded serving: when a recompute fails server-side, the last
	// known-good bytes (which were correct when cached — every response
	// here is a pure function of its fingerprint) beat a 5xx. Bounded by
	// the same cap as the primary; a key promoted back into the primary
	// leaves the stale store.
	staleLL *list.List
	stale   map[string]*list.Element
	flight  engine.Group[*cachedResponse]
	stats   CacheStats
	// flightEnter, when set, runs between do's LRU miss and its flight:
	// tests hold a caller there while another caller's flight finishes.
	flightEnter func()
}

type lruEntry struct {
	key string
	res *cachedResponse
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		staleLL: list.New(),
		stale:   make(map[string]*list.Element),
	}
}

// lookup probes the LRU without touching the flight layer — the serving
// hot path for warm keys, kept free of context construction so a cache
// hit costs a lock and a list splice.
func (c *resultCache) lookup(key string) (*cachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*lruEntry).res, true
	}
	return nil, false
}

// do returns the cached response for key, computing it at most once no
// matter how many goroutines ask concurrently. state reports how the
// response was obtained — "hit" (replayed from the LRU), "coalesced"
// (waited on another request's in-flight computation), or "miss"
// (computation started for this call). compute receives the flight's
// context: it outlives any single request and is canceled only when
// every interested request has gone.
func (c *resultCache) do(ctx context.Context, key string, compute func(ctx context.Context) (*cachedResponse, error)) (res *cachedResponse, state string, err error) {
	if res, ok := c.lookup(key); ok {
		return res, "hit", nil
	}
	if c.flightEnter != nil {
		c.flightEnter()
	}

	var hit atomic.Bool
	res, shared, err := c.flight.Do(ctx, key, func(fctx context.Context) (*cachedResponse, error) {
		// Another caller's flight may have finished and inserted the
		// result since the lookup above; serve it rather than compute it
		// twice.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			hit.Store(true)
			return el.Value.(*lruEntry).res, nil
		}
		c.mu.Unlock()
		r, err := compute(fctx)
		if err == nil {
			// Insert before the flight completes so a request arriving in
			// the done/release window finds the LRU entry, never a gap.
			c.mu.Lock()
			c.insert(key, r)
			c.mu.Unlock()
		}
		return r, err
	})

	c.mu.Lock()
	switch {
	case shared:
		state = "coalesced"
		c.stats.Coalesced++
	case err == nil && hit.Load():
		state = "hit"
		c.stats.Hits++
	default:
		state = "miss"
		c.stats.Misses++
	}
	if err != nil && ctx.Err() != nil {
		c.stats.Aborted++
	}
	c.mu.Unlock()
	return res, state, err
}

// insert adds an entry and evicts from the tail past capacity. Caller
// holds c.mu.
func (c *resultCache) insert(key string, res *cachedResponse) {
	if el, ok := c.entries[key]; ok { // lost a benign race with a re-add
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	// A fresh primary entry supersedes any stale copy of the same key.
	if el, ok := c.stale[key]; ok {
		c.staleLL.Remove(el)
		delete(c.stale, key)
	}
	c.entries[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		e := tail.Value.(*lruEntry)
		c.ll.Remove(tail)
		delete(c.entries, e.key)
		c.stats.Evictions++
		// Demote to the stale store instead of discarding: the bytes stay
		// correct forever (pure computation), so they remain a valid
		// degraded answer if the recompute ever fails.
		c.stale[e.key] = c.staleLL.PushFront(e)
		for c.staleLL.Len() > c.max {
			st := c.staleLL.Back()
			c.staleLL.Remove(st)
			delete(c.stale, st.Value.(*lruEntry).key)
		}
	}
}

// staleLookup probes the stale store — the degraded-serving path taken
// only after a compute failure, so a hit counts as a stale serve.
func (c *resultCache) staleLookup(key string) (*cachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.stale[key]
	if !ok {
		return nil, false
	}
	c.staleLL.MoveToFront(el)
	c.stats.StaleServed++
	return el.Value.(*lruEntry).res, true
}

// prime inserts a complete response that was assembled outside the
// flight layer — the streaming handlers build their bodies
// incrementally and deposit the verified result here, so a later
// synchronous request for the same fingerprint replays it as a hit.
func (c *resultCache) prime(key string, res *cachedResponse) {
	c.mu.Lock()
	c.insert(key, res)
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.InFlight = c.flight.Len()
	s.StaleEntries = c.staleLL.Len()
	return s
}
