package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// Request is the wire form of one assignment request: a task graph in the
// repository's JSON interchange format, the platform size, and optional
// knobs. Tenant and budget may instead (or additionally) arrive as the
// X-Tenant and X-Budget-Ms headers; headers win.
type Request struct {
	// Graph is the task graph (taskgraph interchange: subtasks + arcs).
	Graph json.RawMessage `json:"graph"`
	// Procs is the processor count to distribute for (default 4).
	Procs int `json:"procs,omitempty"`
	// Assigner pins a deadline-assignment strategy: PURE, NORM, THRES,
	// ADAPT (slicing metrics, CCNE estimation) or UD, ED, EQS, EQF
	// (one-pass baselines). Empty selects the tier default (ADAPT at
	// full fidelity, PURE when degraded).
	Assigner string `json:"assigner,omitempty"`
	// Policy is the dispatch rule of the schedulability check: EDF
	// (default), LLF, FIFO or HLF.
	Policy string `json:"policy,omitempty"`
	// BudgetMs is the request's end-to-end computation budget in
	// milliseconds; it becomes a context deadline threaded through the
	// whole pipeline. 0 means the server default; values above the
	// server maximum — or the latency class's own clamp — are clamped.
	BudgetMs int `json:"budgetMs,omitempty"`
	// Tenant names the quota bucket ("" = the anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// Class is the request's latency class: "interactive", "standard" or
	// "batch" (empty = the server's default class). May instead (or
	// additionally) arrive as the X-Latency-Class header; the header
	// wins. The class selects the latency objective the request is
	// scored against (slo.go) and clamps its budget; it does not change
	// the answer, so it is excluded from the content address.
	Class string `json:"class,omitempty"`
}

// Response is the wire form of one successful answer. Every field is a
// deterministic function of the request key, so repeated identical
// requests marshal to byte-identical bodies — computed or cached.
type Response struct {
	// Key is the request's content address (sha256); retries carrying
	// the same key are free.
	Key string `json:"key"`
	// Assigner is the strategy that actually computed the answer (a
	// degraded request reports the cheaper label it was served with).
	Assigner string `json:"assigner"`
	// Procs echoes the platform size.
	Procs int `json:"procs"`
	// Verdict is the schedulability check's outcome.
	Verdict Verdict `json:"verdict"`
	// Subtasks carries the distribution: one window per ordinary
	// subtask, in graph order.
	Subtasks []SubtaskWindow `json:"subtasks"`
}

// Verdict reports whether the distributed deadlines are schedulable under
// the requested dispatch policy, and how tightly.
type Verdict struct {
	Schedulable     bool    `json:"schedulable"`
	MaxLateness     float64 `json:"maxLateness"`
	Makespan        float64 `json:"makespan"`
	MissedDeadlines int     `json:"missedDeadlines"`
}

// SubtaskWindow is one subtask's assigned execution window and placement.
type SubtaskWindow struct {
	Name     string  `json:"name"`
	Release  float64 `json:"release"`
	Deadline float64 `json:"deadline"`
	Proc     int     `json:"proc"`
}

// wireRequest is a Request as handleAssign decodes it: the embedded
// Request carries every scalar field, and the shallower Graph field
// shadows Request.Graph for the "graph" key, so the one pass over the
// body (decodeRequest, or encoding/json when it falls back) decodes the
// graph straight into its typed wire form. The public Request keeps its
// RawMessage for clients.
type wireRequest struct {
	Request
	Graph taskgraph.Wire `json:"graph"`
}

// Limits that make a malformed or adversarial request cheap to refuse.
const (
	maxProcs      = 512
	maxSubtasks   = 20000
	maxBodyBytes  = 8 << 20
	serveFaultTag = "serve" // trace table / retry-seed namespace
)

// parsedRequest is a validated request, resolved against the server
// config and the active degrade tier.
type parsedRequest struct {
	// graph is nil when parse skipped Build on a cache hit; a request
	// that then has to compute builds it from wire (graphOrBuild).
	graph    *taskgraph.Graph
	wire     *taskgraph.Wire
	sys      *platform.System
	assigner experiment.Assigner
	label    string // registry name (PURE, ADAPT, ...), not Label()
	policy   scheduler.Policy
	key      string // sha256 content address
	tenant   string
	class    LatencyClass
	budget   time.Duration
	pinned   bool // assigner explicitly requested
}

// assignerFor resolves a registry name. The registry is deliberately the
// paper's stock set: slicing metrics run with CCNE estimation (the
// paper's best) and defaultDelta/threshold parameters matching dlexp.
func assignerFor(name string) (experiment.Assigner, error) {
	switch name {
	case "PURE":
		return experiment.Slicing(core.PURE(), core.CCNE()), nil
	case "NORM":
		return experiment.Slicing(core.NORM(), core.CCNE()), nil
	case "THRES":
		return experiment.Slicing(core.THRES(1.0, 1.25), core.CCNE()), nil
	case "ADAPT":
		return experiment.Slicing(core.ADAPT(1.25), core.CCNE()), nil
	case "UD":
		return experiment.Baseline(strategy.UD()), nil
	case "ED":
		return experiment.Baseline(strategy.ED()), nil
	case "EQS":
		return experiment.Baseline(strategy.EQS()), nil
	case "EQF":
		return experiment.Baseline(strategy.EQF()), nil
	}
	return nil, fmt.Errorf("unknown assigner %q (want PURE, NORM, THRES, ADAPT, UD, ED, EQS or EQF)", name)
}

func policyFor(name string) (scheduler.Policy, error) {
	switch name {
	case "", "EDF":
		return scheduler.PolicyEDF, nil
	case "LLF":
		return scheduler.PolicyLLF, nil
	case "FIFO":
		return scheduler.PolicyFIFO, nil
	case "HLF":
		return scheduler.PolicyHLF, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want EDF, LLF, FIFO or HLF)", name)
}

// policyName is the canonical spelling keyed into the content address, so
// an omitted policy and an explicit "EDF" address the same answer.
func policyName(p scheduler.Policy) string {
	switch p {
	case scheduler.PolicyLLF:
		return "LLF"
	case scheduler.PolicyFIFO:
		return "FIFO"
	case scheduler.PolicyHLF:
		return "HLF"
	default:
		return "EDF"
	}
}

// parse validates a request against the server's limits and the active
// tier, resolving the effective assigner and computing the content key.
//
// The key comes before the graph: it hashes the wire form's binary key
// (taskgraph.Wire.AppendKey), which two wires share exactly when they
// share canonical bytes, json.Marshal of the built graph. So it needs no
// Graph. When the key already has a settled
// answer the graph is never built. That is sound because an answer is
// settled only for a key whose graph passed Build, and wires with equal
// canonical bytes are accepted or refused alike and build the same graph.
// Every graph is built on a miss, so an invalid graph is refused with a
// 400 before admission.
func (s *Server) parse(req *wireRequest, tier Tier) (*parsedRequest, *Error) {
	if n := len(req.Graph.Subtasks); n > maxSubtasks {
		return nil, Errorf(ClassInvalid, fmt.Sprintf("graph has %d subtasks (limit %d)", n, maxSubtasks))
	}
	procs := req.Procs
	if procs == 0 {
		procs = 4
	}
	if procs < 1 || procs > maxProcs {
		return nil, Errorf(ClassInvalid, fmt.Sprintf("procs %d out of range [1, %d]", procs, maxProcs))
	}
	sys, err := platform.New(procs)
	if err != nil {
		return nil, Errorf(ClassInvalid, err.Error())
	}
	policy, err := policyFor(req.Policy)
	if err != nil {
		return nil, Errorf(ClassInvalid, err.Error())
	}

	// Resolve the effective assigner: a pinned request is honored at
	// every computing tier (the client asked for exactly this answer); an
	// unpinned one gets the tier default — full fidelity normally, the
	// cheapest stock metric under degradation.
	label := req.Assigner
	pinned := label != ""
	if !pinned {
		if tier >= TierCheap {
			label = "PURE"
		} else {
			label = "ADAPT"
		}
	}
	asg, err := assignerFor(label)
	if err != nil {
		return nil, Errorf(ClassInvalid, err.Error())
	}

	// The latency class shapes scoring and budget, never the answer.
	class := s.slo.cfg.DefaultClass
	if req.Class != "" {
		var ok bool
		if class, ok = parseLatencyClass(req.Class); !ok {
			return nil, Errorf(ClassInvalid,
				fmt.Sprintf("unknown latency class %q (want interactive, standard or batch)", req.Class))
		}
	}

	budget := s.cfg.DefaultBudget
	if req.BudgetMs > 0 {
		budget = time.Duration(req.BudgetMs) * time.Millisecond
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	// The class clamp binds last: an interactive request may not reserve a
	// batch-sized budget (the class is a promise in both directions).
	if cb := s.slo.maxBudget(class); cb > 0 && budget > cb {
		budget = cb
	}

	// The content address covers exactly the answer's inputs: the graph's
	// values (formatting differences collapse), platform size,
	// assigner, policy. Budget and tenant are excluded — they shape how
	// long we try, not what the answer is.
	key, kerr := contentKey(&req.Graph, procs, label, policyName(policy))
	if kerr != nil {
		return nil, kerr
	}
	pr := &parsedRequest{
		wire:     &req.Graph,
		sys:      sys,
		assigner: asg,
		label:    label,
		policy:   policy,
		key:      key,
		tenant:   req.Tenant,
		class:    class,
		budget:   budget,
		pinned:   pinned,
	}
	if _, hit := s.cache.Peek(key); !hit {
		if _, err := pr.graphOrBuild(); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// keyPool recycles the buffers contentKey hashes, so a request's key
// costs no allocation proportional to its graph.
var keyPool = sync.Pool{New: func() any { return new([]byte) }}

// contentKey is the request's sha256 content address: the graph's binary
// key (taskgraph.Wire.AppendKey), then the answer-shaping options, hashed
// in one call. Two requests share it exactly when their graphs' canonical
// bytes and their options are equal.
func contentKey(w *taskgraph.Wire, procs int, label, policy string) (string, *Error) {
	bp := keyPool.Get().(*[]byte)
	defer putBuffer(&keyPool, bp)
	buf, err := w.AppendKey((*bp)[:0])
	if err != nil {
		return "", Errorf(ClassInvalid, "canonicalize graph: "+err.Error())
	}
	buf = append(buf, "|procs="...)
	buf = strconv.AppendInt(buf, int64(procs), 10)
	buf = append(buf, "|assigner="...)
	buf = append(buf, label...)
	buf = append(buf, "|policy="...)
	buf = append(buf, policy...)
	*bp = buf
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// graphOrBuild returns the request's graph, building it from the wire
// form if parse skipped that on a cache hit (the entry was then evicted
// before this request could read it, leaving it to compute).
func (pr *parsedRequest) graphOrBuild() (*taskgraph.Graph, *Error) {
	if pr.graph == nil {
		g, err := pr.wire.Build()
		if err != nil {
			return nil, Errorf(ClassInvalid, err.Error())
		}
		pr.graph = g
	}
	return pr.graph, nil
}

// faultIndex derives the chaos harness's graph index from the request key,
// so injection is a pure function of request content (identical requests
// roll identical faults — and identical recoveries).
func faultIndex(key string) int {
	raw, err := hex.DecodeString(key[:8])
	if err != nil {
		return 0
	}
	return int(binary.BigEndian.Uint32(raw) & 0x7fffffff)
}

// compute runs the full pipeline for one parsed request on the shared
// pool, under the engine's retry policy, and returns the marshalled
// response body or a classified *Error. It mirrors the sweep engine's unit runner: each attempt
// gets a watchdog deadline (the tighter of the request budget and the
// per-attempt timeout), injected faults and panics become typed errors,
// and retryable failures re-run with deterministic jittered backoff.
func (s *Server) compute(ctx context.Context, pr *parsedRequest, rs *reqState) ([]byte, error) {
	if _, err := pr.graphOrBuild(); err != nil {
		return nil, err
	}
	gi := faultIndex(pr.key)
	attempts := s.cfg.Retry.Attempts()
	seed := experiment.RetrySeed(serveFaultTag, gi)
	var lastErr error
	for k := 1; k <= attempts; k++ {
		if k > 1 {
			s.retries.Add(1)
			rs.retries++
			bt := rs.stageStart()
			err := s.cfg.Retry.Backoff(ctx, k-1, seed)
			rs.span(s.cfg.Trace, "backoff", bt, k, 0, obs.OutcomeRetry, "", errDetail(lastErr))
			if err != nil {
				return nil, Classify(err)
			}
		}
		body, err := s.attempt(ctx, pr, gi, k, rs)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if ctx.Err() != nil || !experiment.Retryable(err) {
			break
		}
	}
	return nil, Classify(lastErr)
}

// errDetail compresses an attempt error for span tags.
func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// attempt is one try: one pool job computing assignment + schedulability
// on a worker's pooled scratch. Fault injection runs inside the job so the
// pool's recover boundary owns injected panics, and the attempt context
// (budget ∧ per-attempt watchdog) governs both the DP's cooperative
// cancellation and the pool's abandonment of a hung attempt.
func (s *Server) attempt(ctx context.Context, pr *parsedRequest, gi, k int, rs *reqState) ([]byte, error) {
	actx := ctx
	if s.cfg.UnitTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.cfg.UnitTimeout)
		defer cancel()
	}
	at := rs.stageStart()
	var body []byte
	// The worker id is stored atomically because an abandoned (hung or
	// panicked) attempt's goroutine may still be running when Do returns;
	// whichever write lands, the span names a worker that really carried
	// this attempt.
	var workerID atomic.Int64
	err := s.orc.Do(actx, s.cfg.Metrics, func(wb *experiment.Workbench) error {
		if rs.obsOn {
			workerID.Store(int64(wb.Worker()))
		}
		if err := s.cfg.Faults.Inject(actx, serveFaultTag, gi, k, s.cfg.Metrics, s.cfg.Trace); err != nil {
			return err
		}
		res, err := pr.assigner.Assign(actx, pr.graph, pr.sys, nil, wb.Distributor())
		if err != nil {
			return err
		}
		sched, err := wb.Scheduler().Run(pr.graph, pr.sys, res,
			scheduler.Config{RespectRelease: true, Policy: pr.policy})
		if err != nil {
			return err
		}
		body, err = renderResponse(pr, res, sched)
		return err
	})
	rs.span(s.cfg.Trace, "attempt", at, k, int(workerID.Load()),
		attemptOutcome(err), "", errDetail(err))
	return body, err
}

// attemptOutcome maps an attempt error to its span outcome, mirroring the
// engine's unit-span taxonomy.
func attemptOutcome(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return obs.OutcomeCancelled
	default:
		var pe *experiment.PanicError
		if errors.As(err, &pe) {
			return obs.OutcomePanic
		}
		return obs.OutcomeError
	}
}

// renderScratch is renderResponse's pooled scratch: the body buffer and
// the subtask order.
type renderScratch struct {
	body []byte
	ids  []taskgraph.NodeID
}

// renderPool recycles renderScratch. One whose body outgrew
// maxPooledBuffer is dropped; its order is then small too, as every
// window takes more bytes of body than its NodeID takes of order.
var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// renderResponse writes the deterministic response body: exactly the
// bytes json.Marshal writes for the Response, with the subtasks in name
// order (stable under any future builder reordering). Build gives every
// subtask a name of its own, so the order is total. Floats and strings
// use the appenders of the canonical graph encoding, so a NaN or an
// infinity fails with json.Marshal's error, at the first field it would
// have reached. The body is rendered into a pooled buffer and returned as
// an exact-size copy, since the response cache keeps it.
func renderResponse(pr *parsedRequest, res *core.Result, sched *scheduler.Schedule) ([]byte, error) {
	sc := renderPool.Get().(*renderScratch)
	defer func() {
		if cap(sc.body) <= maxPooledBuffer {
			renderPool.Put(sc)
		}
	}()
	nodes := pr.graph.NodesView()
	ids := sc.ids[:0]
	for i := range nodes {
		if nodes[i].Kind == taskgraph.KindSubtask {
			ids = append(ids, taskgraph.NodeID(i))
		}
	}
	slices.SortFunc(ids, func(a, b taskgraph.NodeID) int { return strings.Compare(nodes[a].Name, nodes[b].Name) })
	sc.ids = ids

	missed := sched.MissedDeadlines(pr.graph, res)
	b := append(sc.body[:0], `{"key":`...)
	b = taskgraph.AppendJSONString(b, pr.key)
	b = append(b, `,"assigner":`...)
	b = taskgraph.AppendJSONString(b, pr.assigner.Label())
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, int64(pr.sys.NumProcs()), 10)
	b = append(b, `,"verdict":{"schedulable":`...)
	b = strconv.AppendBool(b, missed == 0)
	b = append(b, `,"maxLateness":`...)
	b, err := taskgraph.AppendJSONFloat(b, sched.MaxLateness(pr.graph, res))
	if err != nil {
		return nil, err
	}
	b = append(b, `,"makespan":`...)
	if b, err = taskgraph.AppendJSONFloat(b, sched.Makespan); err != nil {
		return nil, err
	}
	b = append(b, `,"missedDeadlines":`...)
	b = strconv.AppendInt(b, int64(missed), 10)
	b = append(b, `},"subtasks":`...)
	if len(ids) == 0 {
		b = append(b, "null"...)
	} else {
		for k, id := range ids {
			if k == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = taskgraph.AppendJSONString(b, nodes[id].Name)
			b = append(b, `,"release":`...)
			if b, err = taskgraph.AppendJSONFloat(b, res.Release[id]); err != nil {
				return nil, err
			}
			b = append(b, `,"deadline":`...)
			if b, err = taskgraph.AppendJSONFloat(b, res.Absolute[id]); err != nil {
				return nil, err
			}
			b = append(b, `,"proc":`...)
			b = strconv.AppendInt(b, int64(sched.Proc[id]), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	sc.body = b
	body := make([]byte, len(b))
	copy(body, b)
	return body, nil
}
