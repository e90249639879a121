// Package experiment is the evaluation harness of this repository — the
// equivalent of the authors' FEAST framework [14]. It generates workload
// batches, runs the deadline-distribution → list-scheduling pipeline over a
// sweep of system sizes, and aggregates the paper's quality measure (the
// maximum task lateness, averaged over the batch) into tables that
// reproduce every figure in the paper plus the Section 8 complementary
// results.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/analysis"
	"deadlinedist/internal/assign"
	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/improve"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// Assigner abstracts a deadline-assignment strategy: the slicing
// distributors of internal/core and the one-pass baselines of
// internal/strategy.
type Assigner interface {
	// Label identifies the strategy in tables ("PURE/CCNE", "ADAPT", "EQF").
	Label() string
	// Fingerprint writes into dst a value that fully determines the
	// assignment's dependence on the platform for a given graph: two
	// platforms with bit-identical fingerprints yield identical
	// assignments, so results can be cached across the system-size sweep.
	// Like Assign, it may reuse dst's storage (reallocating when short) and
	// run on the pooled working set sc; both may be nil. An empty
	// fingerprint means the assignment is platform-independent. An error
	// (e.g. a platform-dependent estimator failed to build) fails the cell
	// as an Assign error does.
	Fingerprint(dst []float64, g *taskgraph.Graph, sys *platform.System, sc *core.Scratch) ([]float64, error)
	// Assign produces the annotated graph. The slicing assigners poll ctx
	// between slicing rounds and return ctx.Err() once it settles, may
	// overwrite and return recycle (a Result the caller has finished
	// with, never one that is shared), and run on the pooled working set
	// sc. ctx, recycle and sc may each be nil, and none of them changes
	// the result. Assigners that cannot use them ignore them.
	Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
		recycle *core.Result, sc *core.Scratch) (*core.Result, error)
}

// slicingAssigner adapts a core.Distributor.
type slicingAssigner struct {
	dist core.Distributor
}

var _ Assigner = slicingAssigner{}

// Slicing wraps a metric and a communication-cost estimator as an Assigner.
func Slicing(m core.Metric, e core.CommEstimator) Assigner {
	return slicingAssigner{dist: core.Distributor{Metric: m, Estimator: e}}
}

func (a slicingAssigner) Label() string {
	return a.dist.Metric.Name() + "/" + a.dist.Estimator.Name()
}

func (a slicingAssigner) Fingerprint(dst []float64, g *taskgraph.Graph, sys *platform.System, sc *core.Scratch) ([]float64, error) {
	return a.dist.CostVectors(dst, g, sys, sc), nil
}

func (a slicingAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	return a.dist.DistributeScratchContext(ctx, g, sys, recycle, sc)
}

// dynSlicingAssigner is a slicing assigner whose estimator depends on the
// concrete platform (e.g. CCHOP needs the network built for the right
// processor count).
type dynSlicingAssigner struct {
	metric core.Metric
	label  string
	est    func(sys *platform.System) (core.CommEstimator, error)
}

var _ Assigner = dynSlicingAssigner{}

// SlicingDyn wraps a metric with a platform-dependent estimator factory.
func SlicingDyn(m core.Metric, label string,
	est func(sys *platform.System) (core.CommEstimator, error)) Assigner {
	return dynSlicingAssigner{metric: m, label: label, est: est}
}

func (a dynSlicingAssigner) Label() string { return a.label }

func (a dynSlicingAssigner) Fingerprint(dst []float64, g *taskgraph.Graph, sys *platform.System, sc *core.Scratch) ([]float64, error) {
	e, err := a.est(sys)
	if err != nil {
		return nil, err
	}
	return core.Distributor{Metric: a.metric, Estimator: e}.CostVectors(dst, g, sys, sc), nil
}

func (a dynSlicingAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	e, err := a.est(sys)
	if err != nil {
		return nil, err
	}
	return core.Distributor{Metric: a.metric, Estimator: e}.DistributeScratchContext(ctx, g, sys, recycle, sc)
}

// baselineAssigner adapts a strategy.Strategy (platform-independent).
type baselineAssigner struct {
	s strategy.Strategy
}

var _ Assigner = baselineAssigner{}

// Baseline wraps a one-pass assignment strategy as an Assigner.
func Baseline(s strategy.Strategy) Assigner { return baselineAssigner{s: s} }

func (a baselineAssigner) Label() string { return a.s.Name() }

func (a baselineAssigner) Fingerprint(dst []float64, _ *taskgraph.Graph, _ *platform.System, _ *core.Scratch) ([]float64, error) {
	return dst[:0], nil // platform-independent
}

func (a baselineAssigner) Assign(_ context.Context, g *taskgraph.Graph, _ *platform.System,
	_ *core.Result, _ *core.Scratch) (*core.Result, error) {
	return a.s.Assign(g)
}

// assignFirst is the conventional-order strategy the paper argues against:
// compute a full static task assignment first (Sarkar-style clustering +
// load balancing), pin it into the graph, then distribute deadlines with
// exact communication costs (the original BST's strict-locality mode).
// It fingerprints and assigns as the slicing assigner it embeds.
type assignFirst struct {
	slicingAssigner
}

var (
	_ Assigner         = assignFirst{}
	_ GraphTransformer = assignFirst{}
)

// AssignFirst wraps a metric in the assignment-before-distribution flow.
func AssignFirst(m core.Metric) Assigner {
	return assignFirst{slicingAssigner{dist: core.Distributor{Metric: m, Estimator: core.CCKnown(nil)}}}
}

func (a assignFirst) Label() string { return a.dist.Metric.Name() + "/assign-first" }

func (a assignFirst) Transform(g *taskgraph.Graph, sys *platform.System) (*taskgraph.Graph, error) {
	mapping, err := assign.Cluster(g, sys)
	if err != nil {
		return nil, err
	}
	return assign.Apply(g, mapping)
}

// improvedAssigner wraps a slicing distribution with the reference-[3]
// style iterative improvement loop.
type improvedAssigner struct {
	dist core.Distributor
	cfg  improve.Config
}

var _ Assigner = improvedAssigner{}

// Improved wraps a metric and estimator with iterative improvement: after
// distributing, the windows are reshaped toward the binding subtask for a
// bounded number of schedule-and-adjust rounds.
func Improved(m core.Metric, e core.CommEstimator, cfg improve.Config) Assigner {
	return improvedAssigner{dist: core.Distributor{Metric: m, Estimator: e}, cfg: cfg}
}

func (a improvedAssigner) Label() string {
	return a.dist.Metric.Name() + "+improve"
}

func (a improvedAssigner) Fingerprint(dst []float64, g *taskgraph.Graph, sys *platform.System, sc *core.Scratch) ([]float64, error) {
	// Improvement schedules on the concrete platform, so the outcome
	// always depends on the processor count.
	return append(a.dist.CostVectors(dst, g, sys, sc), float64(sys.NumProcs())), nil
}

func (a improvedAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	_ *core.Result, sc *core.Scratch) (*core.Result, error) {
	res, err := a.dist.DistributeScratchContext(ctx, g, sys, nil, sc)
	if err != nil {
		return nil, err
	}
	out, err := improve.Run(g, sys, res, a.cfg)
	if err != nil {
		return nil, err
	}
	return out.Distribution, nil
}

// Config parameterizes one experiment run. Every cell measures the
// paper's quality measure: the maximum subtask lateness of its schedule.
type Config struct {
	// Workload is the task-graph generator configuration.
	Workload generator.Config
	// Graphs is the batch size (paper: 128 task graphs per point).
	Graphs int
	// Seed identifies the batch; the same seed regenerates the same
	// graphs.
	Seed uint64
	// Sizes is the system-size sweep (paper: 2..16 processors).
	Sizes []int
	// Platform builds the system for a given size. Nil means the paper's
	// default platform (homogeneous, contention-free shared bus, unit
	// per-item cost).
	Platform func(n int) (*platform.System, error)
	// Scheduler configures the list scheduler, its run-time model
	// included. Its Network is set per size from the Network field.
	Scheduler scheduler.Config
	// Network, when non-nil, builds the multihop network of each size
	// that routes messages over contended, deadline-scheduled links
	// (reference [13]-style real-time channels) instead of the
	// contention-free platform costs.
	Network func(n int) (*channel.Network, error)
	// Workers sizes the run's own pool when Orchestrator is nil (default
	// GOMAXPROCS). Ignored when Orchestrator is set — the shared pool's
	// size governs instead.
	Workers int
	// Orchestrator is the pool and caches the run's graph pipelines go
	// through. Shared across runs, it overlaps their tables instead of
	// draining the pool at table boundaries, generates each workload batch
	// once, and reuses assignments with known fingerprints across every
	// table sharing the batch. Nil means the run starts an Orchestrator of
	// its own with Workers workers and closes it before returning. Output
	// is bit-for-bit identical either way.
	Orchestrator *Orchestrator
	// Structured, when non-nil, replaces the random generator with a
	// structured shape (its Workload field is overwritten with Workload).
	Structured *generator.StructuredConfig
	// Custom, when non-nil, replaces the generator entirely: one call per
	// batch index with an independent random stream (used for the
	// realistic benchmark applications). Takes precedence over Structured.
	Custom func(src *rng.Source) (*taskgraph.Graph, error)
	// Metrics, when non-nil, receives per-stage wall times and
	// fingerprint-cache traffic for this run (see internal/metrics). The
	// same recorder may be shared across runs to aggregate a whole sweep.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives a span per unit attempt and per
	// pipeline stage, plus instant marks for retries, fault injections and
	// journal replays (dlexp -events/-trace). Like Metrics, a nil tracer
	// costs the hot path nothing, and tracing never alters table output.
	Trace *obs.Tracer
	// Progress, when non-nil, receives unit-level completion accounting
	// for this run: the table registers its unit total at start, and every
	// committed (or journal-prefilled, or permanently failed) unit reports
	// in. Shared across runs, it drives dlexp's /progress endpoint and the
	// periodic stderr progress line.
	Progress *obs.Progress
	// UnitTimeout bounds one attempt of one unit of pool work (one graph
	// through every assigner × size cell). An attempt exceeding it is
	// abandoned — its private buffers are discarded and its worker replaced
	// — and retried under Retry. 0 means no per-unit deadline.
	UnitTimeout time.Duration
	// Budget bounds the whole table. When it expires, the run drains
	// gracefully and returns a partial table (cells marked
	// FAILED(budget exceeded)) plus a *PartialError. 0 means no budget.
	Budget time.Duration
	// Retry governs re-execution of retryable unit failures: panics,
	// per-unit deadline timeouts and Transient errors. Domain errors stay
	// fail-fast and are never retried. The zero value means the defaults
	// (3 attempts, 10ms..500ms exponential backoff).
	Retry RetryPolicy
	// Faults, when non-nil, arms the chaos harness: panics, hangs and
	// transient errors injected at the unit boundary (see FaultPlan).
	// Production runs leave it nil.
	Faults *FaultPlan
	// Journal, when non-nil, checkpoints every completed unit to disk and
	// skips units already journaled by an earlier run of identical content
	// (dlexp -resume).
	Journal *Journal
	// ValidateSample, when > 0, runs the scheduler's validity checker on a
	// deterministic sample of produced schedules — every cell whose
	// (graph + assigner + size) index sum is divisible by it — and fails
	// the sweep on the first invalid schedule (dlexp -validate).
	ValidateSample int
}

// GraphTransformer is an optional Assigner capability: strategies that
// need to rewrite the workload for a concrete platform (e.g. computing a
// static task assignment and pinning it into the graph) implement it; the
// engine distributes, schedules and measures on the transformed graph.
type GraphTransformer interface {
	Transform(g *taskgraph.Graph, sys *platform.System) (*taskgraph.Graph, error)
}

// labelled overrides an assigner's table label.
type labelled struct {
	Assigner
	label string
}

func (l labelled) Label() string { return l.label }

// Default returns the paper's experimental setup (Section 5) for the given
// execution-time scenario: 128 graphs, 2–16 processors, contention-free
// shared bus, and the time-driven run-time model (subtasks dispatch within
// their assigned windows).
func Default(s generator.Scenario) Config {
	return Config{
		Workload:  generator.Default(s),
		Graphs:    128,
		Seed:      1997,
		Sizes:     sizes(2, 16),
		Scheduler: scheduler.Config{RespectRelease: true},
	}
}

func sizes(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// Point is one aggregated measurement at one system size. Raw retains the
// per-graph observations (in batch order) so that paired comparisons
// between curves — which share the same graphs — are possible.
type Point struct {
	Size  int
	Stats analysis.Stats
	Raw   []float64
	// Failed, when non-empty, marks a cell an interrupted or over-budget
	// run could not finish: Stats and Raw are meaningless and renderers
	// print FAILED(<reason>) instead of numbers.
	Failed string
}

// Curve is one strategy's measurements across the size sweep.
type Curve struct {
	Label  string
	Points []Point
}

// Table is one chart of the paper: several curves over the same sweep.
type Table struct {
	Title    string
	Scenario string
	XLabel   string
	YLabel   string
	Curves   []Curve
}

// ErrNoAssigners is returned when Run is called without strategies.
var ErrNoAssigners = errors.New("experiment needs at least one assigner")

// defaultMaxErrors bounds the number of distinct graph-pipeline errors one
// Run reports before summarizing the rest. The first error cancels the
// remaining pipelines either way.
const defaultMaxErrors = 8

// Run executes the full pipeline for every assigner over the size sweep and
// returns one table. Graph pipelines run concurrently; results are
// aggregated in deterministic (graph-index) order so output is identical
// regardless of parallelism.
func (cfg Config) Run(title string, assigners ...Assigner) (*Table, error) {
	return cfg.RunContext(context.Background(), title, assigners...)
}

// RunContext is Run under a context — the entry point of the fault-tolerant
// run layer (DESIGN.md §9). Cancelling ctx (SIGINT in dlexp) or exhausting
// Budget drains the pool gracefully and returns the partial table plus a
// *PartialError; unit panics, deadline timeouts and Transient errors are
// isolated per unit and retried under Retry, and completed units are
// checkpointed to Journal when one is attached. Because every retry
// re-derives its values from the same immutable inputs, the table of a run
// that survived faults, retries or a resume is byte-identical to a
// fault-free run's.
func (cfg Config) RunContext(ctx context.Context, title string, assigners ...Assigner) (*Table, error) {
	if len(assigners) == 0 {
		return nil, ErrNoAssigners
	}
	if cfg.Graphs < 1 {
		return nil, fmt.Errorf("batch of %d graphs", cfg.Graphs)
	}
	if len(cfg.Sizes) == 0 {
		return nil, errors.New("empty system-size sweep")
	}
	makeSys := cfg.Platform
	if makeSys == nil {
		makeSys = func(n int) (*platform.System, error) { return platform.New(n) }
	}

	// rctx is the run's context: the caller's, tightened by the per-table
	// budget when one is set.
	rctx := ctx
	if cfg.Budget > 0 {
		var cancelBudget context.CancelFunc
		rctx, cancelBudget = context.WithTimeout(ctx, cfg.Budget)
		defer cancelBudget()
	}
	if err := rctx.Err(); err != nil {
		return nil, err
	}
	orc := cfg.Orchestrator
	owned := orc == nil
	if owned {
		orc = newOrchestrator(cfg.Workers, false)
		defer orc.Close()
		cfg.Orchestrator = orc
	}
	cfg.Metrics.SetPoolWorkers(orc.Workers())

	// Generation is batch-scoped, not cell-scoped: graph -1 by convention.
	genClock := stageClock{rec: cfg.Metrics, tr: cfg.Trace, table: title, graph: -1}
	gt0 := genClock.start()
	graphs, batchShared, err := cfg.sharedBatch(rctx, owned)
	genClock.done(metrics.StageGenerate, "", 0, gt0, "")
	if err != nil {
		return nil, fmt.Errorf("generate batch: %w", err)
	}
	systems := make([]*platform.System, len(cfg.Sizes))
	nets := make([]*channel.Network, len(cfg.Sizes))
	for i, n := range cfg.Sizes {
		if systems[i], err = makeSys(n); err != nil {
			return nil, fmt.Errorf("platform for %d processors: %w", n, err)
		}
		if cfg.Network != nil {
			if nets[i], err = cfg.Network(n); err != nil {
				return nil, fmt.Errorf("network for %d processors: %w", n, err)
			}
		}
	}

	// vals[a][s][g] = measure for assigner a, size s, graph g. The [s][g]
	// layout lets each Point alias its row as Raw without a copy.
	vals := make([][][]float64, len(assigners))
	for a := range vals {
		vals[a] = make([][]float64, len(cfg.Sizes))
		for s := range vals[a] {
			vals[a][s] = make([]float64, cfg.Graphs)
		}
	}

	// Checkpoint replay: units journaled by an earlier run of identical
	// content are prefilled and never submitted.
	cfg.Progress.StartTable(title, cfg.Graphs)
	skip := make([]bool, cfg.Graphs)
	prefilled := 0
	var jkey string
	if cfg.Journal != nil {
		jkey = cfg.journalKey(title, assigners)
		n := len(assigners) * len(cfg.Sizes)
		for gi := 0; gi < cfg.Graphs; gi++ {
			flat, ok := cfg.Journal.lookup(jkey, gi, n)
			if !ok {
				continue
			}
			for a := range assigners {
				for si := range cfg.Sizes {
					vals[a][si][gi] = flat[a*len(cfg.Sizes)+si]
				}
			}
			skip[gi] = true
			prefilled++
			cfg.Metrics.JournalReplay()
			cfg.Progress.UnitDone(title)
			cfg.Trace.UnitReplayed(title, gi)
		}
	}

	env := &unitEnv{
		cfg:       cfg,
		title:     title,
		graphs:    graphs,
		systems:   systems,
		nets:      nets,
		assigners: assigners,
		crossOK:   batchShared,
		models:    cfg.cacheModels(batchShared, systems, nets),
		vals:      vals,
		jkey:      jkey,
		completed: prefilled,
	}

	// Fail fast: the first error stops feeding the pool and makes the
	// workers drain the remaining jobs without running them, instead of
	// burning the rest of the batch. Every distinct error is collected (up
	// to defaultMaxErrors) so one bad strategy does not mask another.
	// Cancellation (SIGINT, budget) drains the same way but records no
	// error — the partial-table path below reports it instead.
	uctx, ucancel := context.WithCancel(rctx)
	defer ucancel()
	var (
		mu      sync.Mutex
		errs    []error
		omitted int
	)
	fail := func(gi int, err error) {
		cfg.Progress.UnitFailed(title)
		mu.Lock()
		if len(errs) < defaultMaxErrors {
			errs = append(errs, fmt.Errorf("graph %d: %w", gi, err))
		} else {
			omitted++
		}
		mu.Unlock()
		ucancel()
	}
	// runOne executes one unit on box, routing its outcome: cancellation
	// of the run drains silently, everything else fails the run. A context
	// error counts as cancellation only once uctx is dead: an assigner's
	// own deadline on a live run is a unit failure naming its cell.
	runOne := func(gi int, box *workerBox) {
		if uctx.Err() != nil {
			return
		}
		if err := env.runUnit(uctx, gi, box); err != nil {
			if uctx.Err() != nil && isCancellation(err) {
				ucancel()
				return
			}
			fail(gi, err)
		}
	}
	// One job per graph, interleaving with every other run feeding the same
	// orchestrator. Each job writes disjoint (graph, size) slots, so
	// aggregation below stays deterministic.
	var jobWG sync.WaitGroup
	for gi := 0; gi < cfg.Graphs && uctx.Err() == nil; gi++ {
		if skip[gi] {
			continue
		}
		jobWG.Add(1)
		ok := orc.submit(poolJob{rec: cfg.Metrics, fn: func(box *workerBox) {
			defer jobWG.Done()
			runOne(gi, box)
		}}, uctx.Done())
		if !ok {
			jobWG.Done()
			break
		}
	}
	jobWG.Wait()
	if env.jerr != nil {
		return nil, fmt.Errorf("checkpoint journal: %w", env.jerr)
	}
	if len(errs) > 0 {
		if omitted > 0 {
			errs = append(errs, fmt.Errorf("%d further graph pipelines failed (omitted)", omitted))
		}
		return nil, errors.Join(errs...)
	}

	table := &Table{
		Title:    title,
		Scenario: scenarioName(cfg.Workload),
		XLabel:   "processors",
		YLabel:   "avg max lateness",
	}
	if env.done() < cfg.Graphs {
		// Graceful drain: the run was cancelled or ran out of budget with
		// units missing. A cell's value is the batch average, so any
		// missing unit leaves every cell incomplete — mark them FAILED
		// rather than report a statistic over a partial batch. Completed
		// units are already journaled; a -resume run picks up from here.
		reason := "interrupted"
		cause := rctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		if ctx.Err() == nil && errors.Is(cause, context.DeadlineExceeded) {
			reason = "budget exceeded"
		}
		for _, asg := range assigners {
			curve := Curve{Label: asg.Label(), Points: make([]Point, len(cfg.Sizes))}
			for si, size := range cfg.Sizes {
				curve.Points[si] = Point{Size: size, Failed: reason}
			}
			table.Curves = append(table.Curves, curve)
		}
		return table, &PartialError{Reason: reason, Failed: len(assigners) * len(cfg.Sizes), Err: cause}
	}
	for a, asg := range assigners {
		curve := Curve{Label: asg.Label(), Points: make([]Point, len(cfg.Sizes))}
		for si, size := range cfg.Sizes {
			pt := Point{Size: size, Raw: vals[a][si]}
			for _, v := range pt.Raw {
				pt.Stats.Add(v)
			}
			curve.Points[si] = pt
		}
		table.Curves = append(table.Curves, curve)
	}
	return table, nil
}

// unitEnv bundles the immutable inputs of one RunContext's units with the
// shared result storage and completion accounting.
type unitEnv struct {
	cfg       Config
	title     string
	graphs    []*taskgraph.Graph
	systems   []*platform.System
	nets      []*channel.Network
	assigners []Assigner
	crossOK   bool
	// models[si] is the outcome-cache model id of size si, 0 where the
	// cache keys no cell (see cacheModels).
	models []uint32
	vals   [][][]float64
	jkey   string

	mu        sync.Mutex
	completed int // units committed (including journal-prefilled ones)
	jerr      error
}

func (e *unitEnv) done() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.completed
}

// commit publishes one successful attempt: its private buffer is copied
// into the run's value matrix (disjoint slots per unit — no lock needed)
// and appended to the journal.
func (e *unitEnv) commit(gi int, out [][]float64) error {
	for a := range out {
		for si, v := range out[a] {
			e.vals[a][si][gi] = v
		}
	}
	var jerr error
	if j := e.cfg.Journal; j != nil {
		flat := make([]float64, 0, len(out)*len(out[0]))
		for a := range out {
			flat = append(flat, out[a]...)
		}
		jerr = j.commit(e.jkey, gi, flat)
		e.cfg.Metrics.JournalCompute()
	}
	e.cfg.Progress.UnitDone(e.title)
	e.mu.Lock()
	e.completed++
	if jerr != nil && e.jerr == nil {
		e.jerr = jerr
	}
	e.mu.Unlock()
	return jerr
}

// runUnit drives one unit of pool work through the retry policy. Each
// attempt computes into a private buffer committed only on success, so an
// abandoned attempt can never race a retry or corrupt the run's results.
func (e *unitEnv) runUnit(ctx context.Context, gi int, box *workerBox) error {
	rec := e.cfg.Metrics
	tr := e.cfg.Trace
	attempts := e.cfg.Retry.Attempts()
	seed := RetrySeed(e.title, gi)
	ref := &cellRef{}
	var lastErr error
	tried := 0
	for k := 1; k <= attempts; k++ {
		if k > 1 {
			rec.UnitRetry()
			tr.Mark(e.title, gi, k, obs.OutcomeRetry, string(outcomeOf(lastErr)))
			if err := e.cfg.Retry.Backoff(ctx, k-1, seed); err != nil {
				break
			}
		}
		// The attempt's buffer comes from the current worker's arena: it is
		// still private to the attempt (commit copies it out before the
		// worker takes another job), and an abandoned or panicked attempt
		// swaps in a fresh worker, so a retry can never share a backing
		// array with the goroutine it abandoned.
		out := box.w.outMatrix(len(e.assigners), len(e.cfg.Sizes))
		tried = k
		// The attempt's worker id and start time are captured up front: a
		// abandoned or panicked attempt swaps box.w for a fresh worker, and
		// the span must name the one that actually ran.
		wid := box.w.id
		ut0 := tr.Now()
		err := e.attemptUnit(ctx, gi, k, box, out, ref)
		if err == nil {
			tr.UnitSpan(e.title, gi, k, wid, ut0, obs.OutcomeOK, "", 0, "")
			return e.commit(gi, out)
		}
		label, size := ref.get()
		tr.UnitSpan(e.title, gi, k, wid, ut0, outcomeOf(err), label, size, err.Error())
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			break
		}
	}
	if ctx.Err() != nil && isCancellation(lastErr) {
		return ctx.Err()
	}
	label, size := ref.get()
	return &UnitError{Graph: gi, Label: label, Size: size, Attempts: tried, Err: lastErr}
}

// attemptUnit runs one attempt on the box's boundary: inline, or detached
// under the per-unit deadline when one is configured. A hung attempt is
// abandoned and can never publish results, because the attempt's buffer is
// private and commit never runs. Fault injection sits at the unit
// boundary, before any cache interaction, so an injected fault can never
// strand a singleflight slot it holds.
func (e *unitEnv) attemptUnit(ctx context.Context, gi, attempt int, box *workerBox,
	out [][]float64, ref *cellRef) error {

	actx := ctx
	timed := e.cfg.UnitTimeout > 0
	if timed {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, e.cfg.UnitTimeout)
		defer cancel()
	}
	err := box.run(actx, timed, func(w *poolWorker) error {
		if err := e.cfg.Faults.Inject(actx, e.title, gi, attempt, e.cfg.Metrics, e.cfg.Trace); err != nil {
			return err
		}
		return e.runGraph(actx, gi, out, w, ref, attempt)
	})
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		e.cfg.Metrics.UnitPanic()
	case timed && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		e.cfg.Metrics.UnitTimedOut()
		return ErrUnitTimeout
	}
	return err
}

// cellID names one (assigner, size) cell.
type cellID struct {
	label string
	size  int
}

// cellRef publishes which cell a unit attempt is currently in, so the
// parent can name it in a UnitError even for an abandoned attempt.
type cellRef struct{ p atomic.Pointer[cellID] }

func (c *cellRef) set(label string, size int) { c.p.Store(&cellID{label: label, size: size}) }

func (c *cellRef) get() (string, int) {
	if id := c.p.Load(); id != nil {
		return id.label, id.size
	}
	return "", 0
}

// isCancellation reports whether err is (or wraps) a context cancellation
// or deadline — the run-level stop signals, as opposed to unit failures.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// outcomeOf classifies a failed attempt for its trace span, mirroring the
// failure taxonomy of the run layer (see faults.go).
func outcomeOf(err error) obs.Outcome {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return obs.OutcomePanic
	case errors.Is(err, ErrUnitTimeout):
		return obs.OutcomeTimeout
	case isCancellation(err):
		return obs.OutcomeCancelled
	default:
		return obs.OutcomeError
	}
}

// stageClock times the pipeline stages of one unit attempt for both sinks,
// carrying the identity shared by every cell: table, graph, attempt and
// worker. start reads the clock once and done once more, giving the one
// duration to the recorder and the tracer; with both sinks nil, start
// returns the zero time and neither reads the clock.
type stageClock struct {
	rec     *metrics.Recorder
	tr      *obs.Tracer
	table   string
	graph   int
	attempt int
	worker  int
}

func (c stageClock) start() time.Time {
	if c.rec == nil && c.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// done records stage s of the cell (label, size) begun at t0.
func (c stageClock) done(s metrics.Stage, label string, size int, t0 time.Time, cache string) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	c.rec.Observe(s, d)
	c.tr.StageSpan(c.table, c.graph, c.attempt, s.String(), label, size, c.worker, t0, d, cache)
}

// span records stage s on the tracer only, for a stage the recorder times
// elsewhere; t0 comes from the tracer's Now, zero when tracing is off.
func (c stageClock) span(s metrics.Stage, label string, size int, t0 time.Time, cache string) {
	if !t0.IsZero() {
		c.tr.StageSpan(c.table, c.graph, c.attempt, s.String(), label, size, c.worker, t0, time.Since(t0), cache)
	}
}

// cacheModels returns the outcome-cache model id of every size: 0 unless
// the batch is shared (only shared graphs key the cross-table caches), no
// network routes the messages and the platform has a class.
func (cfg Config) cacheModels(batchShared bool, systems []*platform.System, nets []*channel.Network) []uint32 {
	models := make([]uint32, len(systems))
	if !batchShared {
		return models
	}
	scfg := cfg.Scheduler
	scfg.Network = nil
	for si, sys := range systems {
		if class, ok := sys.Class(); ok && nets[si] == nil {
			models[si] = cfg.Orchestrator.modelID(outcomeModel{class: class, procs: sys.NumProcs(), cfg: scfg})
		}
	}
	return models
}

// sharedBatch fetches the run's batch through the orchestrator's
// content-addressed cache. A Custom generator has no content identity, and
// a run-owned orchestrator has no caches (no other table could read them),
// so both generate directly. The second return reports whether the graphs are
// shared cache values — only shared graphs are valid cross-table
// assignment-cache keys, so a run-owned orchestrator's assignments recycle
// the worker's spare Result instead of publishing to a cache nobody reads.
func (cfg Config) sharedBatch(ctx context.Context, owned bool) ([]*taskgraph.Graph, bool, error) {
	if owned || cfg.Custom != nil {
		graphs, err := cfg.batch()
		return graphs, false, err
	}
	graphs, err := cfg.Orchestrator.batch(ctx, cfg.batchID(), cfg.Metrics, cfg.batch)
	return graphs, true, err
}

// batchID is the content address of the run's batch (Custom-less runs only).
func (cfg Config) batchID() generator.BatchID {
	if cfg.Structured != nil {
		sc := *cfg.Structured
		sc.Workload = cfg.Workload
		return generator.StructuredBatchID(sc, cfg.Seed, cfg.Graphs)
	}
	return generator.RandomBatchID(cfg.Workload, cfg.Seed, cfg.Graphs)
}

// runGraph runs graph gi through every assigner and size, reusing the
// distribution while its fingerprint's bits are unchanged across sizes.
// When crossOK is set (a run over a shared batch), per-run cache misses
// consult the orchestrator's cross-table assignment cache before
// computing. Every stage is timed once through a stageClock: with metrics
// and tracing off, the steady state takes no clock readings.
//
// A cell schedules only an outcome it cannot take from an earlier run
// (DESIGN.md §8.3): within a row — one assigner's unchanged distribution of
// the untransformed graph — a later size reuses the row's schedule when
// scheduler.Carries says the processors it left idle make no difference;
// otherwise a shared distribution consults the orchestrator's cross-table
// outcome cache. A cell that validation samples always checks a real
// schedule against its own platform.
//
// Results go to out[a][si] — the attempt's private buffer — never to shared
// storage; ctx is checked at every cell boundary so a cancelled run drains
// at the next cell; ref tracks the current cell for failure reporting.
func (e *unitEnv) runGraph(ctx context.Context, gi int, out [][]float64, w *poolWorker,
	ref *cellRef, attempt int) error {

	cfg := e.cfg
	g := e.graphs[gi]
	rec := cfg.Metrics
	orc := cfg.Orchestrator
	clk := stageClock{rec: rec, tr: cfg.Trace, table: e.title, graph: gi, attempt: attempt, worker: w.id}
	for a, asg := range e.assigners {
		// The cached fingerprint is w.fpCached; it is only read while
		// cachedRes is set, so an earlier assigner's value never matches.
		var (
			cachedRes    *core.Result
			cachedShared bool
			row          rowOutcome
		)
		label := asg.Label()
		transformer, _ := asg.(GraphTransformer)
		for si, sys := range e.systems {
			if err := ctx.Err(); err != nil {
				return err
			}
			ref.set(label, sys.NumProcs())
			gg := g
			if transformer != nil {
				var err error
				t0 := clk.start()
				gg, err = transformer.Transform(g, sys)
				clk.done(metrics.StageTransform, label, sys.NumProcs(), t0, "")
				if err != nil {
					return fmt.Errorf("%s: transform: %w", label, err)
				}
			}
			t0 := clk.start()
			fp, err := asg.Fingerprint(w.fp, gg, sys, w.dist)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			w.fp = fp
			hit := cachedRes != nil && sameBits(fp, w.fpCached)
			cacheTag := "miss"
			if hit {
				cacheTag = "hit"
			}
			clk.done(metrics.StageFingerprint, label, sys.NumProcs(), t0, cacheTag)
			if hit {
				rec.CacheHit()
			} else {
				rec.CacheMiss()
				var (
					res    *core.Result
					shared bool
				)
				if e.crossOK && transformer == nil {
					// Transformed graphs are per-size values, so only
					// untransformed runs key the cross-table cache.
					t0 = cfg.Trace.Now()
					res, shared, err = orc.assignment(ctx, gg, sys, asg, label, fp, rec, w)
					// "cross": the cross-table cache answered (by hit or by
					// this worker computing and publishing — the span length
					// tells which). The recorder times only a computation,
					// inside orc.assignment.
					clk.span(metrics.StageAssign, label, sys.NumProcs(), t0, "cross")
				} else {
					t0 = clk.start()
					res, err = assignWith(ctx, asg, gg, sys, w)
					clk.done(metrics.StageAssign, label, sys.NumProcs(), t0, "miss")
					if err == nil {
						rec.AddSearch(SearchCounters(res.Search))
					}
				}
				if err != nil {
					if isCancellation(err) {
						return err
					}
					return fmt.Errorf("%s: %w", label, err)
				}
				// The replaced result becomes the worker's spare unless it
				// is shared cache storage.
				if cachedRes != nil && !cachedShared {
					w.spare = cachedRes
				}
				cachedRes, cachedShared = res, shared
				// fp becomes the cached fingerprint and the old cached
				// buffer the next cell's.
				w.fp, w.fpCached = w.fpCached, fp
				// A new distribution starts a new row.
				row = rowOutcome{}
			}
			scfg := cfg.Scheduler
			scfg.Network = e.nets[si]
			n := cfg.ValidateSample
			v, err := e.cell(ctx, clk, w, &row, cellIn{g: gg, sys: sys, si: si, res: cachedRes, scfg: scfg,
				shared: cachedShared, sampled: n > 0 && (gi+a+si)%n == 0, label: label})
			if err != nil {
				return err
			}
			if transformer != nil {
				row = rowOutcome{} // the next size schedules another graph
			}
			out[a][si] = v
		}
		if cachedRes != nil && !cachedShared {
			w.spare = cachedRes
		}
	}
	return nil
}

// rowOutcome is the last schedule outcome of a row: the platform it was
// scheduled on, its used-processor count and measured value, and the
// schedule itself while the worker's scheduler scratch still holds it (nil
// after a cross-table hit). set is false until the row has an outcome.
type rowOutcome struct {
	set   bool
	sys   *platform.System
	used  int
	val   float64
	sched *scheduler.Schedule
}

// cellIn is what one cell schedules and measures: graph g (transformed
// or not) distributed as res on sys, the si-th size, under scfg. shared
// reports whether res is cross-table cache storage, sampled whether
// validation samples the cell.
type cellIn struct {
	g       *taskgraph.Graph
	sys     *platform.System
	si      int
	res     *core.Result
	scfg    scheduler.Config
	shared  bool
	sampled bool
	label   string
}

// cell computes one cell's value: from the row's outcome when it carries
// to the cell's platform, from the cross-table outcome cache when the
// distribution is shared and the size has a cache model, and otherwise by
// scheduling for real. A sampled cell validates a real schedule against
// its own platform: the row's held one, or a fresh run. Every real run
// becomes the row's outcome.
func (e *unitEnv) cell(ctx context.Context, clk stageClock, w *poolWorker, row *rowOutcome, c cellIn) (float64, error) {
	procs := c.sys.NumProcs()
	if row.set && (row.sched != nil || !c.sampled) && scheduler.Carries(row.used, row.sys, c.sys, c.scfg) {
		t0 := e.cfg.Trace.Now()
		e.cfg.Metrics.ReusedIdle()
		clk.span(metrics.StageSchedule, c.label, procs, t0, "idle")
		if row.sched == nil {
			return reused(clk, c, row.val, "idle"), nil
		}
		return e.evaluate(clk, c, row.sched)
	}
	if !c.shared || c.sampled || e.models[c.si] == 0 {
		return e.schedule(clk, w, row, c)
	}
	t0 := e.cfg.Trace.Now()
	key := outcomeKey{g: c.g, res: bitsHash(c.res.Release, c.res.Absolute), model: e.models[c.si]}
	val, used, hit, err := e.cfg.Orchestrator.outcome(ctx, key, c.res, func() (float64, int, error) {
		val, err := e.schedule(clk, w, row, c)
		return val, row.used, err
	})
	if !hit {
		return val, err
	}
	e.cfg.Metrics.ReusedCross()
	clk.span(metrics.StageSchedule, c.label, procs, t0, "cross")
	*row = rowOutcome{set: true, sys: c.sys, used: used, val: val}
	return reused(clk, c, val, "cross"), nil
}

// reused observes the measure stage of a cell whose value an earlier run
// measured, tagged with where the value came from, so the stage still
// counts every cell once.
func reused(clk stageClock, c cellIn, val float64, from string) float64 {
	clk.done(metrics.StageMeasure, c.label, c.sys.NumProcs(), clk.start(), from)
	return val
}

// schedule runs the scheduler on the worker's scratch, then validates and
// measures the schedule and makes it the row's outcome.
func (e *unitEnv) schedule(clk stageClock, w *poolWorker, row *rowOutcome, c cellIn) (float64, error) {
	*row = rowOutcome{}
	t0 := clk.start()
	sched, err := w.scratch.Run(c.g, c.sys, c.res, c.scfg)
	clk.done(metrics.StageSchedule, c.label, c.sys.NumProcs(), t0, "")
	if err != nil {
		return 0, fmt.Errorf("%s: schedule: %w", c.label, err)
	}
	val, err := e.evaluate(clk, c, sched)
	if err == nil {
		*row = rowOutcome{set: true, sys: c.sys, used: sched.ProcsUsed(), val: val, sched: sched}
	}
	return val, err
}

// evaluate validates sched against the cell's platform when the cell is
// sampled, and measures it.
func (e *unitEnv) evaluate(clk stageClock, c cellIn, sched *scheduler.Schedule) (float64, error) {
	if c.sampled {
		if verr := scheduler.Validate(c.g, c.sys, c.res, sched, c.scfg); verr != nil {
			// An invalid schedule is a bug, not a transient fault:
			// permanent, so the sweep fails on the first one.
			return 0, fmt.Errorf("%s: invalid schedule at %d procs: %w", c.label, c.sys.NumProcs(), verr)
		}
	}
	t0 := clk.start()
	v := sched.MaxLateness(c.g, c.res)
	clk.done(metrics.StageMeasure, c.label, c.sys.NumProcs(), t0, "")
	return v, nil
}

// assignWith runs one assignment on the worker's pooled scratch, offering
// its spare Result for recycling. An assigner that did not return the spare
// leaves it with the worker for the next call.
func assignWith(ctx context.Context, asg Assigner, g *taskgraph.Graph, sys *platform.System, w *poolWorker) (*core.Result, error) {
	recycle := w.spare
	w.spare = nil
	res, err := asg.Assign(ctx, g, sys, recycle, w.dist)
	if res != recycle {
		w.spare = recycle
	}
	return res, err
}

// batch generates the run's task graphs: random by default, one structured
// shape per seed split when Structured is set, or the Custom generator.
// Graph i depends only on (configuration, seed, i) — the per-index child
// streams are split off serially (Split advances the parent source), after
// which generation is order-independent and runs in parallel.
func (cfg Config) batch() ([]*taskgraph.Graph, error) {
	var (
		gen    func(src *rng.Source) (*taskgraph.Graph, error)
		prefix string
	)
	switch {
	case cfg.Custom != nil:
		gen, prefix = cfg.Custom, "custom graph"
	case cfg.Structured != nil:
		sc := *cfg.Structured
		sc.Workload = cfg.Workload
		gen = func(src *rng.Source) (*taskgraph.Graph, error) { return generator.Structured(sc, src) }
		prefix = "structured graph"
	default:
		gen = func(src *rng.Source) (*taskgraph.Graph, error) { return generator.Random(cfg.Workload, src) }
		prefix = "graph"
	}

	src := rng.New(cfg.Seed)
	srcs := make([]*rng.Source, cfg.Graphs)
	for i := range srcs {
		srcs[i] = src.Split(uint64(i))
	}
	graphs := make([]*taskgraph.Graph, cfg.Graphs)

	workers := runtime.GOMAXPROCS(0)
	if cfg.Workers > 0 {
		workers = cfg.Workers
	}
	if workers > cfg.Graphs {
		workers = cfg.Graphs
	}
	if workers <= 1 {
		for i := range graphs {
			g, err := gen(srcs[i])
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", prefix, i, err)
			}
			graphs[i] = g
		}
		return graphs, nil
	}

	// Parallel fill; per-index error slots keep reporting deterministic
	// (the lowest failing index wins, as in the serial loop).
	genErrs := make([]error, cfg.Graphs)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < cfg.Graphs; i += workers {
				g, err := gen(srcs[i])
				if err != nil {
					genErrs[i] = err
					return
				}
				graphs[i] = g
			}
		}(wk)
	}
	wg.Wait()
	for i, err := range genErrs {
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", prefix, i, err)
		}
	}
	return graphs, nil
}

func scenarioName(w generator.Config) string {
	for _, s := range generator.Scenarios() {
		if s.Deviation == w.ExecDeviation {
			return s.Name
		}
	}
	return fmt.Sprintf("dev=%.2f", w.ExecDeviation)
}
