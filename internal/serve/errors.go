// Package serve is the hardened serving layer of the deadline-distribution
// engine: an HTTP/JSON daemon (cmd/dlserve) that accepts task graphs, runs
// the assignment + schedulability pipeline, and returns distributions and
// verdicts — engineered for the failure path first.
//
// The package is organized around five defenses (DESIGN.md §11):
//
//   - admission control (admission.go): a bounded accept queue and
//     per-tenant token buckets; excess load is shed with 429 + Retry-After
//     instead of queuing without bound.
//   - deadline propagation (pipeline.go): every request carries a
//     computation budget that becomes a context deadline threaded through
//     the distribution DP, so an abandoned request stops consuming CPU at
//     the next slicing round.
//   - graceful degradation (degrade.go): under sustained pressure the
//     server walks a degrade ladder — full fidelity → cheapest metric →
//     cache-only → shed — and recovers with hysteresis.
//   - retry/backoff semantics (server.go): responses are content-addressed
//     by a sha256 request key in an sfcache, so a client retry of the same
//     request is idempotent and returns a bit-identical body.
//   - lifecycle (server.go): /healthz and /readyz split liveness from
//     readiness, SIGTERM drains gracefully (stop accepting, finish
//     in-flight within their deadlines, flush the response journal), and
//     every request runs behind a panic-recovery boundary.
//
// This file is the error taxonomy. Every non-2xx response carries exactly
// one taxonomy error, so clients can branch on the class instead of
// parsing messages, and the chaos acceptance test can assert that no
// response ever escapes the taxonomy.
package serve

import (
	"context"
	"errors"
	"net/http"

	"deadlinedist/internal/experiment"
)

// Class partitions every request failure by what the client should do
// about it. The mapping to HTTP status codes is fixed (Status) and the
// retry decision is a pure function of the class (Retryable): because
// requests are content-addressed and the pipeline is deterministic, every
// failure that is not the client's fault is safe to retry.
type Class string

const (
	// ClassInvalid is a malformed or semantically impossible request
	// (bad JSON, unknown metric, procs < 1). Retrying cannot help. 400.
	ClassInvalid Class = "invalid"
	// ClassOverload is load shedding: admission control or the degrade
	// ladder refused the request to protect the ones already admitted.
	// Retry after the hinted backoff. 429.
	ClassOverload Class = "overload"
	// ClassTransient is a failure expected to heal on its own: the
	// request's computation budget expired, the server is draining, or
	// the chaos harness injected a transient fault. 503.
	ClassTransient Class = "transient"
	// ClassInternal is a recovered panic or another bug-shaped failure.
	// The request is idempotent, so a retry is safe (and may land on a
	// healthy replica), but the class signals "file a bug", not "back
	// off". 500.
	ClassInternal Class = "internal"
)

// Status maps the class to its HTTP status code.
func (c Class) Status() int {
	switch c {
	case ClassInvalid:
		return http.StatusBadRequest
	case ClassOverload:
		return http.StatusTooManyRequests
	case ClassTransient:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Retryable reports whether a client retry of the identical request can
// succeed. Only invalid requests are hopeless.
func (c Class) Retryable() bool { return c != ClassInvalid }

// Error is one classified request failure: the wire form every non-2xx
// response body carries (inside ErrorBody).
type Error struct {
	Class     Class  `json:"class"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

func (e *Error) Error() string { return string(e.Class) + ": " + e.Message }

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Err Error `json:"error"`
}

// Errorf builds a classified error.
func Errorf(c Class, msg string) *Error {
	return &Error{Class: c, Message: msg, Retryable: c.Retryable()}
}

// Classify maps an arbitrary pipeline failure into the taxonomy:
//
//   - an *Error passes through unchanged;
//   - context cancellation/deadline → transient (the budget expired or the
//     server is draining; the work is unfinished, not wrong);
//   - experiment.Transient (which the chaos harness injects) → transient;
//   - a recovered panic (*experiment.PanicError) → internal;
//   - anything else is a domain error the client sent us → invalid.
//
// The last default is deliberate: the pipeline validates its inputs before
// computing, so errors surfacing from the engine (an infeasible estimator
// configuration, a malformed graph) are properties of the request, and
// retrying the identical content cannot change them.
func Classify(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Errorf(ClassTransient, "computation budget exhausted: "+err.Error())
	}
	if experiment.IsTransient(err) {
		return Errorf(ClassTransient, err.Error())
	}
	var pe *experiment.PanicError
	if errors.As(err, &pe) {
		return Errorf(ClassInternal, pe.Error())
	}
	return Errorf(ClassInvalid, err.Error())
}
