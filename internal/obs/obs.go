// Package obs is the run-level observability layer of the experiment
// engine: sweep tracing (a span per unit attempt and per pipeline stage,
// exported as an append-only JSONL event log and as Chrome trace-event
// JSON), unit-level progress accounting, a Prometheus text exposition of
// the metrics.Recorder counters, and the live ops endpoint served by
// dlexp -http (/metrics, /progress, /healthz).
//
// Like metrics.Recorder, every entry point is a no-op on a nil receiver:
// instrumented code never branches on "observability off", and a disabled
// tracer adds zero overhead to the sweep hot path (no clock reads, no
// allocation, no locks).
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Outcome classifies how one unit attempt (or mark) ended.
type Outcome string

// The attempt outcomes of the fault-tolerant run layer, plus the mark
// kinds emitted between attempts.
const (
	// OutcomeOK is a successful attempt.
	OutcomeOK Outcome = "ok"
	// OutcomePanic is an attempt that panicked and was recovered.
	OutcomePanic Outcome = "panic"
	// OutcomeTimeout is an attempt abandoned by the per-unit deadline.
	OutcomeTimeout Outcome = "timeout"
	// OutcomeError is an attempt that failed with an error (transient
	// errors — including injected ones — and permanent domain errors;
	// the span's detail field carries the message).
	OutcomeError Outcome = "error"
	// OutcomeCancelled is an attempt cut short by run cancellation
	// (SIGINT or an exhausted table budget).
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeRetry marks a retry being issued for a failed unit.
	OutcomeRetry Outcome = "retry"
	// OutcomeFaultInjected marks a chaos-harness injection (the detail
	// field says which class: panic, hang or error).
	OutcomeFaultInjected Outcome = "fault-injected"
	// OutcomeJournalReplayed marks a unit prefilled from the checkpoint
	// journal instead of being recomputed (dlexp -resume).
	OutcomeJournalReplayed Outcome = "journal-replayed"
	// OutcomeTierChange marks a degrade-ladder tier transition of a
	// serving process (the detail field carries "from->to").
	OutcomeTierChange Outcome = "tier-change"
	// OutcomeAlert marks an SLO burn-rate alert state transition (the
	// detail field carries "from->to"; the class field says which latency
	// class).
	OutcomeAlert Outcome = "alert"
)

// Event is one row of the structured event log. Every event carries the
// cell identity that produced it — table title, batch graph index, and
// (when the event is cell-scoped) assigner label and system size — plus
// the attempt number and the pool worker that ran it.
//
// Kinds: "unit" spans cover one whole attempt of one unit of pool work
// (one graph through every assigner × size cell of one table); "stage"
// spans cover one pipeline stage of one cell; "mark" events are instants
// (retries, fault injections, journal replays). Serving processes
// (dlserve) add "request" spans — one per served request, with the
// request id, latency class and tenant — and "rstage" child spans for the
// request's journey through admission, cache, degrade ladder and pool
// attempts; Req groups a request's spans into one trace. Times are
// nanoseconds since the tracer was created; durations are nanoseconds.
type Event struct {
	TS      int64   `json:"ts"`
	Dur     int64   `json:"dur,omitempty"`
	Kind    string  `json:"kind"`
	Table   string  `json:"table,omitempty"`
	Graph   int     `json:"graph"`
	Attempt int     `json:"attempt,omitempty"`
	Stage   string  `json:"stage,omitempty"`
	Label   string  `json:"label,omitempty"`
	Size    int     `json:"size,omitempty"`
	Worker  int     `json:"worker,omitempty"`
	Outcome Outcome `json:"outcome,omitempty"`
	Cache   string  `json:"cache,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Req     string  `json:"req,omitempty"`
	Class   string  `json:"class,omitempty"`
	Tenant  string  `json:"tenant,omitempty"`
}

// Options selects the tracer's sinks. Either may be nil.
type Options struct {
	// Events receives the JSONL structured event log, one Event per line,
	// appended as spans complete.
	Events io.Writer
	// Chrome receives the same spans as a Chrome trace-event JSON array
	// (open in chrome://tracing or https://ui.perfetto.dev), one row per
	// pool worker.
	Chrome io.Writer
}

// Tracer streams spans to its sinks. All methods are safe for concurrent
// use and no-ops on a nil receiver. Create with New (or NewFiles) and
// Close to flush.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	events *bufio.Writer
	chrome *chromeWriter
	owned  []io.Closer
	err    error // first sink error; surfaced by Close
}

// New returns a Tracer writing to the sinks in opts. New(Options{}) is a
// valid tracer that records nothing (but still pays for clock reads);
// callers wanting zero overhead should keep a nil *Tracer instead.
func New(opts Options) *Tracer {
	t := &Tracer{start: time.Now()}
	if opts.Events != nil {
		t.events = bufio.NewWriterSize(opts.Events, 64*1024)
	}
	if opts.Chrome != nil {
		t.chrome = newChromeWriter(opts.Chrome)
	}
	return t
}

// NewFiles opens a Tracer over files: eventsPath receives the JSONL event
// log, chromePath the Chrome trace JSON. Either may be empty. The files
// are closed by Close.
func NewFiles(eventsPath, chromePath string) (*Tracer, error) {
	var opts Options
	var owned []io.Closer
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return nil, err
		}
		opts.Events = f
		owned = append(owned, f)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			for _, c := range owned {
				c.Close()
			}
			return nil, err
		}
		opts.Chrome = f
		owned = append(owned, f)
	}
	t := New(opts)
	t.owned = owned
	return t, nil
}

// Now returns the current time on a live tracer and the zero time on a nil
// one, so instrumented code can skip the clock read when tracing is off.
// Pair with the span emitters, which treat a zero start as "not traced".
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// UnitSpan records one attempt of one unit: the graph's trip through every
// cell of table, with the attempt number, the worker that ran it, and how
// it ended. label/size name the cell the attempt was in when it failed
// (empty/0 for successful attempts, which cover the whole sweep).
func (t *Tracer) UnitSpan(table string, graph, attempt, worker int, start time.Time, outcome Outcome, label string, size int, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{
		TS:      start.Sub(t.start).Nanoseconds(),
		Dur:     time.Since(start).Nanoseconds(),
		Kind:    "unit",
		Table:   table,
		Graph:   graph,
		Attempt: attempt,
		Worker:  worker,
		Outcome: outcome,
		Label:   label,
		Size:    size,
		Detail:  detail,
	})
}

// StageSpan records one pipeline stage of one cell, which began at start
// and took dur; the caller reads the clock, so the span and a metrics
// observation of the same stage carry one duration. cache tags the cell's
// fingerprint-cache outcome where it applies ("hit", "miss", "cross").
func (t *Tracer) StageSpan(table string, graph, attempt int, stage, label string, size, worker int, start time.Time, dur time.Duration, cache string) {
	if t == nil {
		return
	}
	t.emit(Event{
		TS:      start.Sub(t.start).Nanoseconds(),
		Dur:     dur.Nanoseconds(),
		Kind:    "stage",
		Table:   table,
		Graph:   graph,
		Attempt: attempt,
		Stage:   stage,
		Label:   label,
		Size:    size,
		Worker:  worker,
		Cache:   cache,
	})
}

// RequestInfo is the identity and outcome of one served request, as
// recorded by RequestSpan: the request id (grouping the request's child
// spans into one trace), the content-address key (as table, so log
// tooling groups by content identity), the tenant, the latency class, the
// degrade tier it was answered at (as stage), and how it ended. Cache
// tags a response served from the content-addressed cache ("hit") versus
// computed ("miss").
type RequestInfo struct {
	ID      string
	Key     string
	Tenant  string
	Class   string
	Tier    string
	Outcome Outcome
	Cache   string
	Detail  string
}

// RequestSpan records one served request of a serving process (dlserve).
func (t *Tracer) RequestSpan(info RequestInfo, start time.Time) {
	if t == nil {
		return
	}
	t.emit(Event{
		TS:      start.Sub(t.start).Nanoseconds(),
		Dur:     time.Since(start).Nanoseconds(),
		Kind:    "request",
		Req:     info.ID,
		Table:   info.Key,
		Tenant:  info.Tenant,
		Class:   info.Class,
		Stage:   info.Tier,
		Outcome: info.Outcome,
		Cache:   info.Cache,
		Detail:  info.Detail,
	})
}

// ReqStage records one stage of one served request's journey through the
// serving pipeline (admission wait, tenant-bucket decision, cache wait,
// degrade-tier resolution, pool attempts, response write): a child span
// of the request span sharing its request id. attempt and worker
// attribute pool attempts (0 where they do not apply); a zero dur records
// an instant (a retry being issued).
func (t *Tracer) ReqStage(reqID, stage string, attempt, worker int, start time.Time, outcome Outcome, cache, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{
		TS:      start.Sub(t.start).Nanoseconds(),
		Dur:     time.Since(start).Nanoseconds(),
		Kind:    "rstage",
		Req:     reqID,
		Stage:   stage,
		Attempt: attempt,
		Worker:  worker,
		Outcome: outcome,
		Cache:   cache,
		Detail:  detail,
	})
}

// Mark records an instant event: a retry being issued, a fault injection,
// or a journal replay.
func (t *Tracer) Mark(table string, graph, attempt int, outcome Outcome, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{
		TS:      time.Since(t.start).Nanoseconds(),
		Kind:    "mark",
		Table:   table,
		Graph:   graph,
		Attempt: attempt,
		Outcome: outcome,
		Detail:  detail,
	})
}

// UnitReplayed records a unit whose values were prefilled from the
// checkpoint journal: a zero-duration unit span with attempt 0, so the
// event log still carries one unit entry per graph on a resumed run.
func (t *Tracer) UnitReplayed(table string, graph int) {
	if t == nil {
		return
	}
	t.emit(Event{
		TS:      time.Since(t.start).Nanoseconds(),
		Kind:    "unit",
		Table:   table,
		Graph:   graph,
		Outcome: OutcomeJournalReplayed,
	})
}

// emit serializes one event to every sink. Sink errors are sticky and
// surface at Close; tracing never fails the sweep.
func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events != nil {
		buf, err := json.Marshal(ev)
		if err == nil {
			buf = append(buf, '\n')
			_, err = t.events.Write(buf)
		}
		if err != nil && t.err == nil {
			t.err = err
		}
	}
	if t.chrome != nil {
		if err := t.chrome.emit(ev); err != nil && t.err == nil {
			t.err = err
		}
	}
}

// Close flushes every sink (closing any files the tracer opened itself)
// and returns the first error any sink hit. Safe on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.err
	if t.events != nil {
		if ferr := t.events.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		t.events = nil
	}
	if t.chrome != nil {
		if cerr := t.chrome.close(); cerr != nil && err == nil {
			err = cerr
		}
		t.chrome = nil
	}
	for _, c := range t.owned {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	t.owned = nil
	return err
}
