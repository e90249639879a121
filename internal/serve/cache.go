package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// The response cache is what makes client retries free and idempotent:
// responses are content-addressed by the sha256 request key (graph
// content, processor count, assigner, policy — everything that determines
// the answer, nothing that doesn't), so a retry of the same request — or
// the same request from another client — returns the bit-identical body
// without recomputing. Entries are singleflight slots: the first request
// for a key computes, concurrent duplicates wait on it.
//
// Only successful bodies are cached. A failed computation releases its
// slot on the way out (the key is deleted before ready is closed), exactly
// like the orchestrator's assignment cache: an injected fault or an
// expired budget must never pin an error where a healthy retry would have
// computed a real answer.
//
// Eviction is FIFO at a fixed capacity — the bound matters (a daemon must
// not grow without limit on unique traffic); the policy barely does
// (identical-content retries cluster in time).

type respCache struct {
	mu      sync.Mutex
	entries map[string]*respEntry
	order   []string // insertion order of settled entries, for eviction
	cap     int

	hits   atomic.Int64
	misses atomic.Int64
}

type respEntry struct {
	ready chan struct{}
	body  []byte
	err   *Error
}

func newRespCache(capacity int) *respCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &respCache{entries: make(map[string]*respEntry), cap: capacity}
}

// begin claims the singleflight slot for key. When owner is true the
// caller must settle(key, e, ...) exactly once; otherwise e is another
// owner's entry to wait on.
func (c *respCache) begin(key string) (e *respEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		return e, false
	}
	c.misses.Add(1)
	e = &respEntry{ready: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// wait blocks on another owner's entry.
func (c *respCache) wait(ctx context.Context, e *respEntry) ([]byte, *Error) {
	select {
	case <-e.ready:
		return e.body, e.err
	case <-ctx.Done():
		return nil, Classify(ctx.Err())
	}
}

// settle publishes the owner's outcome. A success is cached (evicting the
// oldest settled entry beyond capacity); a failure propagates to current
// waiters but releases the slot, so the next request computes afresh.
func (c *respCache) settle(key string, e *respEntry, body []byte, err *Error) {
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		for len(c.order) > c.cap {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
	}
	c.mu.Unlock()
	e.body, e.err = body, err
	close(e.ready)
}

// peek reports whether a settled success is cached for key without
// waiting — the cache-only tier's probe.
func (c *respCache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		if e.err == nil {
			return e.body, true
		}
		return nil, false
	default:
		return nil, false
	}
}
