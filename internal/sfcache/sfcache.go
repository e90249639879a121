// Package sfcache is a bounded, sharded singleflight cache for pure
// computations: the first caller of a key computes its value, concurrent
// callers of the same key wait for it, and a success is kept for later
// callers. The engine caches generated batches and cross-table
// assignments with it, and dlserve its response bodies.
//
// One policy governs every cache:
//
//   - Capacity is split evenly over a power-of-two number of shards, never
//     more shards than entries, so the cache never holds more than its
//     capacity. Each shard has its own mutex; its critical sections are
//     map operations only.
//   - A full shard refuses publishes: the caller still computes and gets
//     its value, unshared. Once a shard has refused a shard's worth of
//     publishes, it is flushed and admission resumes, so a long-lived
//     process caches its current working set instead of pinning its first
//     one forever. A miss recomputes a bit-identical value, so a flush
//     costs time, never correctness.
//   - Only successes are kept. An owner that fails (an error or a panic)
//     releases its slot on the way out, so a later caller computes afresh.
//     Its waiters get its error, or ErrAbandoned when the owner panicked or
//     stopped on its own context: neither is a verdict on the key.
//   - Waiters block on their own context, never the owner's.
package sfcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrAbandoned is what waiters get when the owner computing their key
// panicked or stopped because its own context ended. The waiter's own
// context may be healthy, so a retry computes the key afresh.
var ErrAbandoned = errors.New("computation abandoned by its owner")

// Outcome says how one Do call was served.
type Outcome uint8

const (
	// Hit: the key was cached or in flight; the caller shared that value.
	Hit Outcome = iota
	// Miss: the caller computed the value and published it.
	Miss
	// Rejected: the caller computed the value, but its shard was full and
	// the value was not published.
	Rejected
	// Flushed: the shard was full and had refused a shard's worth of
	// publishes, so it was flushed; the caller computed the value and
	// published it into the emptied shard. A flush also counts as a
	// rejection.
	Flushed
)

// Stats is a snapshot of a cache's counters since it was made. Every Do
// counts as one hit or one miss; Rejected and Flushes count misses whose
// publish was refused or which flushed their shard.
type Stats struct {
	Hits, Misses, Rejected, Flushes int64
}

// maxShards bounds the shard count. 16 shards keep collisions rare for
// pools up to a few dozen workers.
const maxShards = 16

// Cache is a bounded singleflight cache from K to V. It is safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	hash     func(K) uint64
	mask     uint64
	shardCap int
	shards   []shard[K, V]

	hits, misses, rejected, flushes atomic.Int64
}

// shard is one mutex-guarded singleflight map. refused counts publishes
// refused since the shard's last flush. The pad keeps adjacent shards'
// mutexes on different cache lines.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	refused int
	_       [40]byte
}

// entry is one singleflight slot. done, val and err are written once,
// under the shard mutex. ready is made by the first caller that finds the
// entry unsettled and is closed when it settles, so an entry nobody waits
// for costs one allocation.
type entry[V any] struct {
	ready chan struct{}
	done  bool
	val   V
	err   error
}

// New returns a cache holding at most capacity entries (at least 1).
// hash picks a key's shard; it must be deterministic for equal keys and
// should spread its low bits.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	capacity = max(capacity, 1)
	n := 1
	for n < maxShards && 2*n <= capacity {
		n *= 2
	}
	c := &Cache[K, V]{hash: hash, mask: uint64(n - 1), shardCap: capacity / n, shards: make([]shard[K, V], n)}
	for i := range c.shards {
		c.shards[i].entries = make(map[K]*entry[V])
	}
	return c
}

// Do returns the value for key. When key is cached or in flight, Do waits
// for it (or for ctx) and returns it with Hit. Otherwise it calls fn with
// the admission outcome (Miss, Rejected or Flushed) and returns fn's
// results with that outcome; a Miss or Flushed success is published for
// later callers.
//
// A panic in fn releases the key's slot and is re-raised.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func(Outcome) (V, error)) (V, Outcome, error) {
	s := &c.shards[c.hash(key)&c.mask]
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		c.hits.Add(1)
		if e.done {
			s.mu.Unlock()
			return e.val, Hit, e.err
		}
		if e.ready == nil {
			e.ready = make(chan struct{})
		}
		ready := e.ready
		s.mu.Unlock()
		select {
		case <-ready:
			return e.val, Hit, e.err
		case <-ctx.Done():
			var zero V
			return zero, Hit, ctx.Err()
		}
	}
	out := Miss
	if len(s.entries) >= c.shardCap {
		s.refused++
		c.rejected.Add(1)
		out = Rejected
		if s.refused >= c.shardCap {
			// In-flight owners keep their entries, so their waiters still
			// settle; release only deletes a key that is still its own.
			s.entries = make(map[K]*entry[V])
			s.refused = 0
			c.flushes.Add(1)
			out = Flushed
		}
	}
	var e *entry[V]
	if out != Rejected {
		e = &entry[V]{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	c.misses.Add(1)
	if e == nil {
		v, err := fn(out)
		return v, out, err
	}

	settled := false
	defer func() {
		if !settled {
			c.release(s, key, e, ErrAbandoned)
		}
	}()
	v, err := fn(out)
	settled = true
	if err != nil {
		werr := err
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			werr = ErrAbandoned
		}
		c.release(s, key, e, werr)
		return v, out, err
	}
	s.mu.Lock()
	e.val, e.done = v, true
	ready := e.ready
	s.mu.Unlock()
	if ready != nil {
		close(ready)
	}
	return v, out, nil
}

// release frees a failed owner's slot and hands err to its waiters. The
// key is deleted as the entry settles, so no later caller can join a
// failed entry.
func (c *Cache[K, V]) release(s *shard[K, V], key K, e *entry[V], err error) {
	s.mu.Lock()
	if s.entries[key] == e {
		delete(s.entries, key)
	}
	e.err, e.done = err, true
	ready := e.ready
	s.mu.Unlock()
	if ready != nil {
		close(ready)
	}
}

// Peek returns the cached value for key if it is a settled success,
// without waiting and without counting a hit or a miss.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	s := &c.shards[c.hash(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok && e.done && e.err == nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of entries, settled or in flight. It takes every
// shard lock.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cache's counters. It takes no lock.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Rejected: c.rejected.Load(),
		Flushes:  c.flushes.Load(),
	}
}
