package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the server's first defense: admission control. Two gates run
// before any request touches the pipeline, in order:
//
//  1. per-tenant token buckets — a noisy tenant exhausts its own quota and
//     is shed with 429 + Retry-After while every other tenant keeps its
//     full rate;
//  2. a bounded accept queue — at most MaxInflight requests compute
//     concurrently and at most MaxQueue more wait for a slot. The queue
//     bound is the anti-collapse invariant: a request that cannot get in
//     line is rejected in O(1) with a Retry-After hint instead of joining
//     an unbounded queue whose waiting time grows past every client
//     deadline (at which point the server does nothing but compute answers
//     nobody is waiting for anymore).
//
// Queue occupancy (waiting / MaxQueue) doubles as the pressure signal the
// degrade ladder observes.

// AdmissionConfig bounds concurrent work and per-tenant request rates.
type AdmissionConfig struct {
	// MaxInflight is the number of requests allowed past admission at
	// once (default: the orchestrator's worker count).
	MaxInflight int
	// MaxQueue is the number of admitted-but-waiting requests beyond
	// MaxInflight (default 4 × MaxInflight).
	MaxQueue int
	// TenantRate is each tenant's sustained request budget in requests
	// per second; 0 disables per-tenant quotas.
	TenantRate float64
	// TenantBurst is the token-bucket depth (default max(1, TenantRate)).
	TenantBurst float64
	// MaxTenants bounds the tenant-bucket table (default 8192). Tenants
	// beyond the bound share one overflow bucket, so an adversary minting
	// tenant names can exhaust neither memory nor quota accounting.
	MaxTenants int
}

func (c AdmissionConfig) withDefaults(workers int) AdmissionConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = math.Max(1, c.TenantRate)
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 8192
	}
	return c
}

// admission is the runtime state of both gates. now is injectable so tests
// drive bucket refill deterministically.
type admission struct {
	cfg     AdmissionConfig
	slots   chan struct{} // capacity MaxInflight
	waiting atomic.Int64  // requests blocked on slots

	mu       sync.Mutex
	buckets  map[string]*bucket
	overflow bucket // shared by tenants beyond MaxTenants

	now func() time.Time

	// Shed accounting, exported via /metrics.
	shedQuota atomic.Int64
	shedQueue atomic.Int64
}

func newAdmission(cfg AdmissionConfig, workers int) *admission {
	cfg = cfg.withDefaults(workers)
	return &admission{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxInflight),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// occupancy is the degrade ladder's pressure signal: the filled fraction
// of the wait queue, in [0, 1].
func (a *admission) occupancy() float64 {
	return float64(a.waiting.Load()) / float64(a.cfg.MaxQueue)
}

// acquireSlot is the second gate: the bounded accept queue. The handler
// runs it after takeToken, spanning the quota decision and the queue wait
// as separate request stages. On success the caller holds an inflight slot
// and must release() it; on failure the returned taxonomy error carries the
// class and retryAfter hints the client's backoff.
func (a *admission) acquireSlot(ctx context.Context) (release func(), retryAfter time.Duration, err *Error) {
	select {
	case a.slots <- struct{}{}: // fast path: a slot is free
	default:
		if a.waiting.Add(1) > int64(a.cfg.MaxQueue) {
			a.waiting.Add(-1)
			a.shedQueue.Add(1)
			return nil, time.Second, Errorf(ClassOverload, "accept queue full")
		}
		defer a.waiting.Add(-1)
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			// The request's own budget expired in line: unfinished, not
			// wrong — transient, no Retry-After pressure hint needed.
			return nil, 0, Errorf(ClassTransient, "deadline expired while queued")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { <-a.slots }) }, 0, nil
}

// takeToken charges the tenant's bucket; a false return carries the delay
// after which one token will have refilled.
func (a *admission) takeToken(tenant string) (time.Duration, bool) {
	if a.cfg.TenantRate <= 0 {
		return 0, true
	}
	a.mu.Lock()
	b, ok := a.buckets[tenant]
	if !ok {
		if len(a.buckets) >= a.cfg.MaxTenants {
			b = &a.overflow
		} else {
			b = &bucket{tokens: a.cfg.TenantBurst, last: a.now()}
			a.buckets[tenant] = b
		}
	}
	a.mu.Unlock()
	return b.take(a.now(), a.cfg.TenantRate, a.cfg.TenantBurst)
}

// bucket is one tenant's token bucket, refilled lazily on access.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	sheds  int64 // consecutive sheds since the last successful take
}

func (b *bucket) take(now time.Time, rate, burst float64) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() { // zero-value overflow bucket: born full
		b.tokens, b.last = burst, now
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+dt*rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.sheds = 0
		return 0, true
	}
	// Retry-After is proportional to the shed backlog: the k-th
	// consecutively shed request is told to come back when k whole tokens
	// will have refilled, so a burst of shed clients spreads its retries
	// over the refill schedule instead of stampeding back together at the
	// one-token mark. Rounded up to whole seconds (the header's coarsest
	// portable form).
	b.sheds++
	need := (float64(b.sheds) - b.tokens) / rate
	ra := time.Duration(math.Ceil(need)) * time.Second
	if ra < time.Second {
		ra = time.Second
	}
	return ra, false
}
