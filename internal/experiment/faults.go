package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/sfcache"
)

// This file is the failure model of the fault-tolerant run layer (DESIGN.md
// §9): the typed errors a unit of pool work can fail with, the
// retry-with-backoff policy that governs re-execution, and the config-gated
// fault-injection hook the chaos harness uses to prove the layer correct.
//
// Failure taxonomy. Every unit failure is classified into one of three
// classes, which determine whether a retry may help:
//
//   - panic     — a bug or poisoned input in one cell; retried (a retry
//     re-derives from cached immutable inputs on a fresh worker, so an
//     injected or transient panic heals; a deterministic one fails again
//     and exhausts its attempts).
//   - timeout   — one attempt exceeded Config.UnitTimeout; retried.
//   - transient — an error wrapped with Transient (or injected by the chaos
//     harness); retried.
//
// Everything else (domain errors: infeasible workloads, estimator
// failures, invalid schedules under -validate) is permanent and fails the
// run on the first occurrence, exactly as before this layer existed.

// UnitError is one failed unit of pool work: a graph pipeline that
// exhausted its attempts (or failed permanently). It carries the cell
// identity — batch index, assigner label and system size of the failing
// cell — and the attempt count, so a sweep error names exactly what died
// and how hard the runtime tried.
type UnitError struct {
	// Graph is the batch index of the unit's task graph.
	Graph int
	// Label is the assigner of the failing cell ("" before the first cell).
	Label string
	// Size is the processor count of the failing cell (0 before the first).
	Size int
	// Attempts is how many times the unit ran before giving up.
	Attempts int
	// Err is the final attempt's failure (a *PanicError, ErrUnitTimeout,
	// a Transient error, or a permanent domain error).
	Err error
}

func (e *UnitError) Error() string {
	cell := ""
	if e.Label != "" {
		cell = e.Label
		if e.Size > 0 {
			cell = fmt.Sprintf("%s at %d procs", e.Label, e.Size)
		}
		cell += ": "
	}
	if e.Attempts > 1 {
		return fmt.Sprintf("%safter %d attempts: %v", cell, e.Attempts, e.Err)
	}
	return cell + e.Err.Error()
}

func (e *UnitError) Unwrap() error { return e.Err }

// PanicError is a recovered cell panic, preserving the panic value and the
// stack of the panicking goroutine for post-mortems.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ErrUnitTimeout marks an attempt abandoned by the per-unit deadline
// (Config.UnitTimeout). Timeouts are retryable: the attempt is re-run from
// the unit's cached immutable inputs on a fresh worker.
var ErrUnitTimeout = errors.New("unit deadline exceeded")

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps an error as retryable: the run layer re-executes the
// failing unit under the retry policy instead of failing the sweep.
// Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is (or wraps) a Transient error or
// sfcache.ErrAbandoned: a cache waiter whose owner panicked or was
// cancelled has no verdict yet, and a retry computes one.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t) || errors.Is(err, sfcache.ErrAbandoned)
}

// retryable reports whether a failed sweep attempt is worth re-running:
// panics, unit timeouts and transient errors are; domain errors are not.
// The engine reports its own attempt deadline as ErrUnitTimeout, so a bare
// context.DeadlineExceeded from a live run is the assigner's own deadline —
// a domain error.
func retryable(err error) bool {
	if IsTransient(err) || errors.Is(err, ErrUnitTimeout) {
		return true
	}
	var pe *PanicError
	return errors.As(err, &pe)
}

// Retryable is retryable plus context.DeadlineExceeded: the predicate of a
// caller whose attempt deadline reaches it unconverted, as the serving
// layer's does. Its loop checks the request context first, so it never
// retries an attempt whose whole budget has run out.
func Retryable(err error) bool {
	return retryable(err) || errors.Is(err, context.DeadlineExceeded)
}

// PartialError reports a run that was stopped — by cancellation (SIGINT) or
// an exhausted per-table budget — before every cell completed. The run
// still returns its partial table: completed cells carry real data, the
// rest are marked FAILED(reason).
type PartialError struct {
	// Reason is the human-readable stop cause ("interrupted",
	// "budget exceeded"); it is also the FAILED marker of incomplete cells.
	Reason string
	// Failed counts the incomplete (assigner, size) cells.
	Failed int
	// Err is the underlying context error.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("partial result: %s with %d cells incomplete", e.Reason, e.Failed)
}

func (e *PartialError) Unwrap() error { return e.Err }

// RetryPolicy governs re-execution of retryable unit failures. The zero
// value means the defaults: 3 attempts, 10ms base delay doubling up to
// 500ms.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per unit (1 disables
	// retries; 0 means the default of 3).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: retry k (1-based) waits
	// BaseDelay << (k-1), capped at MaxDelay. Default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 500ms.
	MaxDelay time.Duration
	// Jitter is the fraction of every backoff delay that is randomized so
	// that units failing in lockstep (a shared transient fault, a thundering
	// herd of client retries) cannot re-arrive in lockstep: retry k waits
	// d - u·Jitter·d for a uniform u ∈ [0,1), i.e. a value in
	// (d·(1-Jitter), d]. The randomization is deterministic — u is derived
	// with splitmix64 from a per-unit seed and the attempt number — so a
	// rerun of the same sweep sleeps the bit-identical schedule. 0 means
	// the default of 0.5; negative disables jitter (full, synchronized
	// delays); values above 1 are clamped to 1.
	Jitter float64
}

// Attempts returns the total number of tries per unit, with the default
// applied.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// delay returns the backoff before retry k (1-based) of the unit keyed by
// seed. Jitter only ever shortens the synchronized delay, so the policy's
// documented bounds (BaseDelay << (k-1), capped at MaxDelay) stay upper
// bounds with jitter enabled.
func (p RetryPolicy) delay(k int, seed uint64) time.Duration {
	base, cap := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 500 * time.Millisecond
	}
	d := base << uint(k-1)
	if d <= 0 || d > cap { // overflow or past the cap
		d = cap
	}
	j := p.Jitter
	if j == 0 {
		j = 0.5
	}
	if j < 0 || d <= 0 {
		return d
	}
	if j > 1 {
		j = 1
	}
	u := float64(splitmix64(seed^uint64(k))>>11) / (1 << 53)
	return d - time.Duration(u*j*float64(d))
}

// Backoff sleeps the jittered delay before retry k (1-based) of the unit
// keyed by seed, or until ctx settles, returning ctx.Err() then. The sweep
// engine and the serving layer both wait through it, so they retry with
// the identical policy and determinism. Seeds come from RetrySeed.
func (p RetryPolicy) Backoff(ctx context.Context, k int, seed uint64) error {
	return sleepCtx(ctx, p.delay(k, seed))
}

// RetrySeed derives a deterministic per-unit jitter seed from a unit
// identity — a table title and graph index for sweeps, a fixed tag and a
// request-key index for the serving layer — so distinct units
// desynchronize while a rerun of the same unit reproduces its exact
// backoff schedule.
func RetrySeed(title string, gi int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(title); i++ {
		h ^= uint64(title[i])
		h *= prime64
	}
	return splitmix64(h ^ uint64(gi))
}

// sleepCtx sleeps for d or until ctx is done, returning the context error
// in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FaultPlan is the chaos harness: a config-gated hook that injects panics,
// hangs and transient errors at the unit boundary, at configurable rates.
// Injection is a pure function of (Seed, graph index, attempt), so a chaos
// run is reproducible; attempts beyond MaxFaultyAttempts are always clean,
// so any retry policy with MaxAttempts > MaxFaultyAttempts is guaranteed
// to converge — and, because retries re-derive every value from the same
// immutable inputs, to converge on tables byte-identical to a fault-free
// run. Production runs leave Config.Faults nil; the hook then compiles to
// a single nil check.
type FaultPlan struct {
	// Seed keys the injection stream.
	Seed uint64
	// PanicRate, HangRate and ErrorRate are per-attempt probabilities
	// (summed, in that order) of injecting each fault class.
	PanicRate, HangRate, ErrorRate float64
	// HangDuration is how long an injected hang blocks (cooperatively: it
	// wakes early when the attempt deadline cancels it). Default 1s.
	HangDuration time.Duration
	// MaxFaultyAttempts bounds which attempts may fault; later attempts
	// are always clean. Default 2.
	MaxFaultyAttempts int
}

// Inject runs the fault decision for one attempt of one unit. It may
// panic, block (until HangDuration or ctx), or return a transient error.
// Injections are recorded on rec and marked on tr — the panic path marks
// before panicking, since the recover boundary only sees a generic
// *PanicError and could not attribute it to the harness. It is exported so
// sibling layers with their own recover boundary (the dlserve request
// pipeline) can reuse the same deterministic chaos stream; rec and tr may
// be nil (both are nil-safe).
func (p *FaultPlan) Inject(ctx context.Context, table string, gi, attempt int,
	rec *metrics.Recorder, tr *obs.Tracer) error {
	if p == nil {
		return nil
	}
	max := p.MaxFaultyAttempts
	if max <= 0 {
		max = 2
	}
	if attempt > max {
		return nil
	}
	r := p.roll(gi, attempt)
	switch {
	case r < p.PanicRate:
		rec.FaultInjected()
		tr.Mark(table, gi, attempt, obs.OutcomeFaultInjected, "panic")
		panic(fmt.Sprintf("faultinject: panic (graph %d, attempt %d)", gi, attempt))
	case r < p.PanicRate+p.HangRate:
		rec.FaultInjected()
		tr.Mark(table, gi, attempt, obs.OutcomeFaultInjected, "hang")
		d := p.HangDuration
		if d <= 0 {
			d = time.Second
		}
		// A completed hang is not a failure; one cut short by the attempt
		// deadline surfaces as the context error and becomes a timeout.
		return sleepCtx(ctx, d)
	case r < p.PanicRate+p.HangRate+p.ErrorRate:
		rec.FaultInjected()
		tr.Mark(table, gi, attempt, obs.OutcomeFaultInjected, "error")
		return Transient(fmt.Errorf("faultinject: error (graph %d, attempt %d)", gi, attempt))
	}
	return nil
}

// ParseFaults parses a chaos spec: comma-separated key=value pairs with
// keys panic, hang, err (independent rates in [0,1]), seed (uint64,
// default 1), hangms (hang duration in milliseconds) and maxfaulty (the
// MaxFaultyAttempts bound). It is the single parser behind `dlexp -faults`
// and `dlserve -faults`, so both speak the same dialect.
func ParseFaults(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad fault spec %q (want key=value)", part)
		}
		switch k {
		case "panic", "hang", "err":
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || !(rate >= 0 && rate <= 1) { // NaN fails too
				return nil, fmt.Errorf("bad fault rate %q (want 0..1)", part)
			}
			switch k {
			case "panic":
				plan.PanicRate = rate
			case "hang":
				plan.HangRate = rate
			case "err":
				plan.ErrorRate = rate
			}
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault seed %q", part)
			}
			plan.Seed = n
		case "hangms":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 || int64(n) > math.MaxInt64/int64(time.Millisecond) {
				return nil, fmt.Errorf("bad hang duration %q", part)
			}
			plan.HangDuration = time.Duration(n) * time.Millisecond
		case "maxfaulty":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad maxfaulty %q", part)
			}
			plan.MaxFaultyAttempts = n
		default:
			return nil, fmt.Errorf("unknown fault key %q", k)
		}
	}
	return plan, nil
}

// roll returns the uniform [0,1) decision variable for (gi, attempt).
func (p *FaultPlan) roll(gi, attempt int) float64 {
	h := splitmix64(p.Seed ^ splitmix64(uint64(gi)<<20|uint64(attempt)))
	return float64(h>>11) / (1 << 53)
}

// splitmix64 is the standard 64-bit finalizer (Steele et al.), good enough
// to decorrelate the (seed, cell, attempt) lattice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
