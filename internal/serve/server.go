package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/sfcache"
)

// Config parameterizes a Server. The zero value works: every field has a
// serving-grade default.
type Config struct {
	// Admission bounds concurrency and per-tenant rates.
	Admission AdmissionConfig
	// Workers sizes the worker pool when the server owns its
	// orchestrator (0 = GOMAXPROCS).
	Workers int
	// Orchestrator, when non-nil, is a shared pool the server submits to
	// (a process also running sweeps). The server then does not close it.
	Orchestrator *experiment.Orchestrator
	// DefaultBudget is the computation budget of requests that carry
	// none (default 2s). MaxBudget clamps client budgets (default 10s).
	DefaultBudget, MaxBudget time.Duration
	// UnitTimeout is the per-attempt watchdog (default DefaultBudget):
	// one hung attempt is abandoned and retried without consuming the
	// whole request budget.
	UnitTimeout time.Duration
	// Retry governs re-execution of faulted attempts, with the engine's
	// deterministic jittered backoff.
	Retry experiment.RetryPolicy
	// Faults, when non-nil, is the chaos harness injecting
	// panics/hangs/transients at the attempt boundary — the service's
	// integration test surface, never set in production.
	Faults *experiment.FaultPlan
	// CacheEntries caps the content-addressed response cache (default
	// 4096 bodies).
	CacheEntries int
	// PressureInterval is how often the degrade ladder samples admission
	// pressure (default 100ms).
	PressureInterval time.Duration
	// DrainSlack pads the drain deadline past the longest outstanding
	// request budget (default 500ms): SIGTERM waits MaxBudget +
	// DrainSlack at most.
	DrainSlack time.Duration
	// SLO parameterizes latency classes and burn-rate alerting (slo.go).
	// The zero value serves the stock interactive/standard/batch
	// contracts; tracking is always on (it feeds /slo and the ladder),
	// only its sinks are optional.
	SLO SLOConfig
	// Metrics and Trace are optional sinks (nil-safe, zero overhead when
	// unset, like everywhere else in this repository). AccessLog, when
	// non-nil, receives one JSON line per request plus tier/alert
	// transition events (reqobs.go).
	Metrics   *metrics.Recorder
	Trace     *obs.Tracer
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 10 * time.Second
	}
	if c.DefaultBudget > c.MaxBudget {
		c.DefaultBudget = c.MaxBudget
	}
	if c.UnitTimeout <= 0 {
		c.UnitTimeout = c.DefaultBudget
	}
	if c.PressureInterval <= 0 {
		c.PressureInterval = 100 * time.Millisecond
	}
	if c.DrainSlack <= 0 {
		c.DrainSlack = 500 * time.Millisecond
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	return c
}

// Server is the dlserve daemon: admission control in front, the shared
// engine pool behind, a degrade ladder and a content-addressed response
// cache in between, and a drain state machine around the whole thing.
type Server struct {
	cfg    Config
	orc    *experiment.Orchestrator
	ownOrc bool
	adm    *admission
	ladder *Ladder
	cache  *sfcache.Cache[string, []byte]
	ready  *obs.Readiness
	slo    *sloTracker
	alog   *accessLogger
	rids   *ridGen

	ln       net.Listener
	srv      *http.Server
	stopTick chan struct{}
	tickDone chan struct{}
	drainMu  sync.Mutex
	drained  bool

	// newConns holds the connections that have not yet sent a request
	// (http.StateNew). Shutdown counts such a connection as active for
	// 5s, so Drain closes them itself; once closeNew is set, a newly
	// accepted connection is closed on arrival.
	connMu   sync.Mutex
	newConns map[net.Conn]struct{}
	closeNew bool

	// Request accounting, exported via /metrics.
	served   atomic.Int64 // 2xx responses
	failed   [4]atomic.Int64
	retries  atomic.Int64
	inflight atomic.Int64
}

var classIndex = map[Class]int{ClassInvalid: 0, ClassOverload: 1, ClassTransient: 2, ClassInternal: 3}

// New builds a stopped server. Start runs it; Drain stops it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	orc := cfg.Orchestrator
	own := false
	if orc == nil {
		orc = experiment.NewOrchestrator(cfg.Workers)
		own = true
	}
	seed := maphash.MakeSeed()
	keyHash := func(key string) uint64 { return maphash.String(seed, key) }
	s := &Server{
		cfg:      cfg,
		orc:      orc,
		ownOrc:   own,
		adm:      newAdmission(cfg.Admission, orc.Workers()),
		ladder:   &Ladder{},
		cache:    sfcache.New[string, []byte](cfg.CacheEntries, keyHash),
		ready:    obs.NewReadiness(),
		slo:      newSLOTracker(cfg.SLO, cfg.MaxBudget),
		alog:     newAccessLogger(cfg.AccessLog),
		rids:     newRidGen(),
		stopTick: make(chan struct{}),
		tickDone: make(chan struct{}),
	}
	// Transition hooks: each tier or alert change emits exactly one log
	// event (and a trace mark when a tracer is attached); the matching
	// counters live in the ladder and the SLO tracker themselves.
	s.ladder.onTransition = func(from, to Tier) {
		detail := from.String() + "->" + to.String()
		s.alog.event("tier-change", "", detail)
		s.cfg.Trace.Mark(serveFaultTag, 0, 0, obs.OutcomeTierChange, detail)
	}
	s.slo.onAlert = func(lc LatencyClass, from, to int32) {
		detail := alertName(from) + "->" + alertName(to)
		s.alog.event("alert", lc.String(), detail)
		s.cfg.Trace.Mark(serveFaultTag, 0, 0, obs.OutcomeAlert, detail)
	}
	return s
}

// Ladder exposes the degrade ladder (ops override, tests).
func (s *Server) Ladder() *Ladder { return s.ladder }

// Readiness exposes the /healthz–/readyz state machine.
func (s *Server) Readiness() *obs.Readiness { return s.ready }

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handler returns the server's HTTP mux — the serving surface plus the
// ops endpoints, so one port carries both.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/assign", s.handleAssign)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ok, reason := s.ready.Ready(); !ok {
			http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	return mux
}

// Start binds addr and serves until Drain. The server is ready (and
// /readyz green) when Start returns.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dlserve listener: %w", err)
	}
	s.ln = ln
	s.newConns = make(map[net.Conn]struct{})
	s.srv = &http.Server{Handler: s.Handler(), ConnState: s.trackConn}
	go s.srv.Serve(ln)
	go s.pressureLoop()
	s.ready.SetStarted(true)
	return nil
}

// trackConn is the http.Server ConnState hook behind Drain's handling of
// connections that never send a request.
func (s *Server) trackConn(c net.Conn, st http.ConnState) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	switch {
	case st != http.StateNew:
		delete(s.newConns, c)
	case s.closeNew:
		c.Close()
	default:
		s.newConns[c] = struct{}{}
	}
}

// closeNewConns closes every connection that has not sent a request yet,
// and every one accepted from now on.
func (s *Server) closeNewConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closeNew = true
	for c := range s.newConns {
		c.Close()
		delete(s.newConns, c)
	}
}

// pressureLoop feeds the degrade ladder the larger of two pressure
// signals: admission-queue occupancy (queues building) and the worst
// latency class's fast-window burn as a fraction of the paging threshold
// (budgets burning). Each tick also advances the SLO alert ladder.
func (s *Server) pressureLoop() {
	defer close(s.tickDone)
	t := time.NewTicker(s.cfg.PressureInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p := s.slo.evaluate()
			if occ := s.adm.occupancy(); occ > p {
				p = occ
			}
			s.ladder.Observe(p)
		case <-s.stopTick:
			return
		}
	}
}

// Drain is the graceful-shutdown state machine, run on SIGTERM:
//
//  1. flip /readyz to draining (load balancers steer traffic away);
//  2. stop accepting: requests arriving from here on are refused with a
//     transient taxonomy error before touching the pipeline;
//  3. close connections that have not sent a request, then wait for
//     in-flight requests to finish — each is bounded by its own budget, so
//     the wait converges within MaxBudget + DrainSlack, which caps ctx
//     when the caller passed a looser one;
//  4. release the pool (when owned) and the pressure ticker.
//
// Drain is idempotent; concurrent calls wait for the first.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.drained {
		return nil
	}
	s.drained = true
	s.ready.SetDraining(true)
	bound := s.cfg.MaxBudget + s.cfg.DrainSlack
	dctx, cancel := context.WithTimeout(ctx, bound)
	defer cancel()
	s.closeNewConns()
	err := s.srv.Shutdown(dctx)
	close(s.stopTick)
	<-s.tickDone
	if s.ownOrc {
		s.orc.Close()
	}
	if err != nil {
		return fmt.Errorf("drain did not converge within %v: %w", bound, err)
	}
	return nil
}

// handleAssign is the request path: taxonomy boundary → admission →
// degrade tier → cache → pipeline. Every exit writes exactly one
// response: a verdict body or one taxonomy error. The reqState threads
// the request's identity (id, tenant, class, tier) and stage timings
// through every branch; finish settles them into the request span, the
// access log and the SLO tracker exactly once.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	rs := &reqState{
		rid:   s.rids.requestID(r.Header.Get("X-Request-Id")),
		t0:    time.Now(),
		class: s.slo.cfg.DefaultClass,
		tier:  s.ladder.Tier(),
		obsOn: s.cfg.Trace != nil || s.alog != nil,
	}
	// The id echoes on every response — success and all four error
	// classes — so it must land in the headers before any write.
	w.Header().Set("X-Request-Id", rs.rid)
	defer func() {
		// The handler's last-resort recover boundary: a panic in the
		// serving layer itself (the pipeline's runs behind the pool's)
		// becomes one taxonomy error, never a dead connection.
		if v := recover(); v != nil {
			s.writeError(w, rs, Errorf(ClassInternal,
				fmt.Sprintf("panic in request handler: %v", v)), 0)
			debug.PrintStack()
		}
		s.finish(rs)
	}()

	if r.Method != http.MethodPost {
		s.writeError(w, rs, Errorf(ClassInvalid, "POST required"), 0)
		return
	}
	if s.ready.Draining() {
		s.writeError(w, rs, Errorf(ClassTransient, "server is draining"), 0)
		return
	}
	// req.Graph lives in sc (decodeRequest), which goes back to the pool
	// only when the handler returns.
	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)
	var req wireRequest
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req, sc); err != nil {
		s.writeError(w, rs, Errorf(ClassInvalid, "decode request: "+err.Error()), 0)
		return
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		req.Tenant = t
	}
	if c := r.Header.Get("X-Latency-Class"); c != "" {
		req.Class = c
	}
	if b := r.Header.Get("X-Budget-Ms"); b != "" {
		ms, err := strconv.Atoi(b)
		if err != nil || ms <= 0 {
			s.writeError(w, rs, Errorf(ClassInvalid, "bad X-Budget-Ms "+b), 0)
			return
		}
		req.BudgetMs = ms
	}

	// Degrade-tier resolution, as its own (instant) child span: which
	// rung this request was served under, decided before any work.
	rs.span(s.cfg.Trace, "tier", rs.stageStart(), 0, 0, obs.OutcomeOK, "", rs.tier.String())

	// Shed tier: nothing computes, nothing waits.
	if rs.tier >= TierShed {
		s.writeError(w, rs, Errorf(ClassOverload, "degraded to shed tier"), time.Second)
		return
	}

	pr, perr := s.parse(&req, rs.tier)
	if perr != nil {
		s.writeError(w, rs, perr, 0)
		return
	}
	rs.key, rs.tenant, rs.class = pr.key, pr.tenant, pr.class

	// The request budget becomes the context deadline every later stage
	// inherits: queue waits, pool submission, the DP's slicing rounds,
	// the schedulability check. A request whose budget expires is
	// abandoned at the next boundary, not completed uselessly.
	ctx, cancel := context.WithTimeout(r.Context(), pr.budget)
	defer cancel()

	// Cache-only tier answers before admission: a hit costs no slot, a
	// miss sheds without queuing.
	if rs.tier >= TierCacheOnly {
		ct := rs.stageStart()
		if body, ok := s.cache.Peek(pr.key); ok {
			rs.cacheTag = "hit"
			rs.computeDur = rs.span(s.cfg.Trace, "cache", ct, 0, 0, obs.OutcomeOK, "hit", "")
			s.writeBody(w, rs, body, true)
			return
		}
		rs.span(s.cfg.Trace, "cache", ct, 0, 0, obs.OutcomeError, "miss", "cache-only miss")
		s.writeError(w, rs, Errorf(ClassOverload, "degraded to cache-only tier"), time.Second)
		return
	}

	// Admission gate one: the tenant's token bucket.
	qt := rs.stageStart()
	if ra, ok := s.adm.takeToken(pr.tenant); !ok {
		s.adm.shedQuota.Add(1)
		rs.admitDur += rs.span(s.cfg.Trace, "quota", qt, 0, 0, obs.OutcomeError, "", "over quota")
		s.writeError(w, rs, Errorf(ClassOverload, "tenant "+pr.tenant+" over quota"), ra)
		return
	}
	rs.admitDur += rs.span(s.cfg.Trace, "quota", qt, 0, 0, obs.OutcomeOK, "", "")

	// Admission gate two: the bounded accept queue.
	st := rs.stageStart()
	release, retryAfter, aerr := s.adm.acquireSlot(ctx)
	if aerr != nil {
		rs.admitDur += rs.span(s.cfg.Trace, "queue", st, 0, 0, obs.OutcomeError, "", aerr.Message)
		s.writeError(w, rs, aerr, retryAfter)
		return
	}
	rs.admitDur += rs.span(s.cfg.Trace, "queue", st, 0, 0, obs.OutcomeOK, "", "")
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// Content-addressed singleflight: the first request for this key
	// computes; identical concurrent requests wait and share the body.
	// Only successful bodies are cached, so an injected fault or an
	// expired budget never pins an error where a healthy retry would
	// compute a real answer.
	wt := rs.stageStart()
	body, out, err := s.cache.Do(ctx, pr.key, func(sfcache.Outcome) ([]byte, error) {
		rs.cacheTag = "miss"
		body, err := s.compute(ctx, pr, rs)
		if !wt.IsZero() {
			rs.computeDur = time.Since(wt)
		}
		return body, err
	})
	if out == sfcache.Hit {
		rs.cacheTag = "hit"
		oc := obs.OutcomeOK
		if err != nil {
			oc = obs.OutcomeError
		}
		rs.computeDur = rs.span(s.cfg.Trace, "cache-wait", wt, 0, 0, oc, "hit", "")
	}
	if err != nil {
		s.writeError(w, rs, Classify(err), 0)
		return
	}
	s.writeBody(w, rs, body, out == sfcache.Hit)
}

// finish settles one request's accounting exactly once: the end-to-end
// latency observation, the SLO scoring (2xx and 5xx only — client faults
// and sheds spend no error budget, see slo.go), the request span, and
// the access-log line.
func (s *Server) finish(rs *reqState) {
	d := time.Since(rs.t0)
	s.cfg.Metrics.ObserveRequest(d)
	if rs.status < 400 || rs.status >= 500 {
		s.slo.observe(rs.class, d, rs.status)
	}
	outcome := "ok"
	if rs.status >= 400 {
		outcome = rs.detail
	}
	s.cfg.Trace.RequestSpan(obs.RequestInfo{
		ID:      rs.rid,
		Key:     rs.key,
		Tenant:  rs.tenant,
		Class:   rs.class.String(),
		Tier:    rs.tier.String(),
		Outcome: rs.outcome,
		Cache:   rs.cacheTag,
		Detail:  outcome,
	}, rs.t0)
	if s.alog != nil {
		s.alog.log(AccessRecord{
			Req:       rs.rid,
			Tenant:    rs.tenant,
			Class:     rs.class.String(),
			Tier:      rs.tier.String(),
			Status:    rs.status,
			Outcome:   outcome,
			Cache:     rs.cacheTag,
			Key:       rs.key,
			Retries:   rs.retries,
			TotalMs:   float64(d) / float64(time.Millisecond),
			AdmitMs:   float64(rs.admitDur) / float64(time.Millisecond),
			ComputeMs: float64(rs.computeDur) / float64(time.Millisecond),
			WriteMs:   float64(rs.writeDur) / float64(time.Millisecond),
		})
	}
}

// writeBody writes a 200 verdict. The body is the cached bit-identical
// answer; cache status travels in a header so it never perturbs bodies.
func (s *Server) writeBody(w http.ResponseWriter, rs *reqState, body []byte, hit bool) {
	s.served.Add(1)
	rs.status, rs.outcome, rs.detail = http.StatusOK, obs.OutcomeOK, ""
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	wt := rs.stageStart()
	w.Write(body)
	rs.writeDur = rs.span(s.cfg.Trace, "write", wt, 0, 0, obs.OutcomeOK, "", "")
}

// writeError writes the single taxonomy error of a failed request.
func (s *Server) writeError(w http.ResponseWriter, rs *reqState, e *Error, retryAfter time.Duration) {
	s.failed[classIndex[e.Class]].Add(1)
	rs.status, rs.outcome, rs.detail = e.Class.Status(), obs.OutcomeError, string(e.Class)
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	}
	wt := rs.stageStart()
	w.WriteHeader(e.Class.Status())
	json.NewEncoder(w).Encode(ErrorBody{Err: *e})
	rs.writeDur = rs.span(s.cfg.Trace, "write", wt, 0, 0, obs.OutcomeError, "", string(e.Class))
}

// handleSLO serves the SLO state as JSON: one entry per latency class
// with objectives, windowed burn rates, alert state and latency
// quantiles. The ops-facing twin of the Prometheus families on /metrics.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Classes []obs.SLOClass `json:"classes"`
	}{s.slo.snapshot()})
}

// handleMetrics extends the repository's Prometheus exposition with the
// serving families: active tier, request outcomes by class, shed and
// cache counters.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, s.cfg.Metrics.Snapshot(), obs.ProgressSnapshot{}); err != nil {
		return
	}
	fmt.Fprintf(w, "# HELP dlserve_tier Active degrade-ladder tier (0=full 1=cheap 2=cache-only 3=shed).\n")
	fmt.Fprintf(w, "# TYPE dlserve_tier gauge\ndlserve_tier %d\n", s.ladder.Tier())
	fmt.Fprintf(w, "# HELP dlserve_requests_total Served requests by outcome.\n")
	fmt.Fprintf(w, "# TYPE dlserve_requests_total counter\n")
	fmt.Fprintf(w, "dlserve_requests_total{outcome=\"ok\"} %d\n", s.served.Load())
	for class, i := range classIndex {
		fmt.Fprintf(w, "dlserve_requests_total{outcome=%q} %d\n", string(class), s.failed[i].Load())
	}
	fmt.Fprintf(w, "# HELP dlserve_inflight Requests past admission right now.\n")
	fmt.Fprintf(w, "# TYPE dlserve_inflight gauge\ndlserve_inflight %d\n", s.inflight.Load())
	fmt.Fprintf(w, "# HELP dlserve_shed_total Requests shed before compute.\n")
	fmt.Fprintf(w, "# TYPE dlserve_shed_total counter\n")
	fmt.Fprintf(w, "dlserve_shed_total{gate=\"quota\"} %d\n", s.adm.shedQuota.Load())
	fmt.Fprintf(w, "dlserve_shed_total{gate=\"queue\"} %d\n", s.adm.shedQueue.Load())
	fmt.Fprintf(w, "# HELP dlserve_ladder_escalations_total Upward tier moves.\n")
	fmt.Fprintf(w, "# TYPE dlserve_ladder_escalations_total counter\ndlserve_ladder_escalations_total %d\n", s.ladder.Escalations())
	fmt.Fprintf(w, "# HELP dlserve_tier_transitions_total Tier changes in either direction.\n")
	fmt.Fprintf(w, "# TYPE dlserve_tier_transitions_total counter\ndlserve_tier_transitions_total %d\n", s.ladder.Transitions())
	fmt.Fprintf(w, "# HELP dlserve_response_cache_total Content-addressed response cache traffic.\n")
	fmt.Fprintf(w, "# TYPE dlserve_response_cache_total counter\n")
	cs := s.cache.Stats()
	fmt.Fprintf(w, "dlserve_response_cache_total{event=\"hit\"} %d\n", cs.Hits)
	fmt.Fprintf(w, "dlserve_response_cache_total{event=\"miss\"} %d\n", cs.Misses)
	fmt.Fprintf(w, "# HELP dlserve_retries_total Attempt retries within requests.\n")
	fmt.Fprintf(w, "# TYPE dlserve_retries_total counter\ndlserve_retries_total %d\n", s.retries.Load())
	obs.WriteSLOPrometheus(w, s.slo.snapshot())
}
