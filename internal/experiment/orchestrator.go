package experiment

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/sfcache"
	"deadlinedist/internal/taskgraph"
)

// Orchestrator shares work across all the tables of one invocation: a
// bounded worker pool fed by every Config.Run whose Orchestrator field
// points at it, a content-addressed batch cache, and a cross-table
// assignment cache. See DESIGN.md §8 for the design and invalidation rules.
//
// Pool: runs submit one job per graph; jobs from different tables interleave
// freely, so a later figure's graphs start while an earlier figure's
// stragglers finish. Each run aggregates its own results by (graph, size)
// index, so tables are bit-for-bit independent of worker count and
// interleaving.
//
// Batch cache: keyed by generator.BatchID (generator config, seed, count) —
// the content address of a deterministic batch. Tables sharing a workload
// reuse one generated batch; the shared graphs are never mutated by the
// pipeline (transformers copy). Custom generator functions have no content
// identity and bypass the cache.
//
// Assignment cache: keyed by (graph pointer, assigner label, fingerprint
// bits). It extends the per-runGraph fingerprint cache across tables, under
// the same contract: bit-identical fingerprints mean identical assignments
// for a given strategy. Graph pointer identity is sound because cached
// graphs come from the batch cache, so tables sharing a workload share the
// very same graph values. Entries are only written for assigners without a
// GraphTransformer (transformed graphs are per-size).
// Entries never go stale — all inputs of an entry are immutable for the
// orchestrator's lifetime — and are dropped only by a capacity flush.
//
// Schedule-outcome cache: keyed by (graph pointer, hash of the
// distribution's Release and Absolute bits, platform class and size,
// scheduler config) — everything the list scheduler reads — so tables that
// schedule one input, under whatever label, schedule it once. An entry
// holds the measured value and the schedule's used-processor count, never
// the Schedule. Only shared (cross-table, immutable) Results are keyed, and
// a hit is confirmed bit by bit against the entry's own Result.
//
// All three caches are sfcache caches: bounded, sharded singleflight maps
// with flush-and-readmit at capacity, where a failed owner releases its
// slot. The per-run Recorder counts each run's share of their traffic.
//
// An Orchestrator is safe for concurrent use by any number of runs.
type Orchestrator struct {
	jobs    chan poolJob
	wg      sync.WaitGroup
	workers int

	// seed keys the shard hashes. Per-process random: shard placement is an
	// implementation detail and never observable in results.
	seed maphash.Seed

	batches  *sfcache.Cache[generator.BatchID, []*taskgraph.Graph]
	assigns  *sfcache.Cache[assignKey, assignEntry]
	outcomes *sfcache.Cache[outcomeKey, outcome]

	// models interns every outcomeModel a table schedules under, so an
	// outcome key carries a small id instead of the whole model. A sweep
	// uses a few hundred models at most.
	modelMu sync.Mutex
	models  map[outcomeModel]uint32
}

// Cache capacities. A batch is a whole table's workload, and an invocation
// uses a few dozen at most, so maxBatchEntries never refuses one. Beyond
// maxAssignEntries (maxOutcomeEntries), assignments (schedule outcomes) are
// computed without being published until the flush re-admits (a miss
// recomputes a bit-identical result).
const (
	maxBatchEntries   = 1 << 10
	maxAssignEntries  = 1 << 16
	maxOutcomeEntries = 1 << 16
)

// poolJob is one unit of pool work: a graph pipeline plus the recorder of
// the run that submitted it (for occupancy accounting).
type poolJob struct {
	rec *metrics.Recorder
	fn  func(box *workerBox)
}

// workerBox is an indirection handle to one worker's scratch state. Its
// run method is the pool's one attempt boundary, and the only place a
// worker is retired: after a panicking attempt, whose scratch may be torn
// mid-mutation, or an abandoned one, whose goroutine still owns it.
type workerBox struct{ w *poolWorker }

// run is one attempt of fn on the box's worker, behind a recover boundary:
// a panic becomes a *PanicError and the worker is replaced. Inline (not
// detached), fn runs on the calling goroutine and its own error is
// returned whatever ctx does. Detached, fn runs on a goroutine of its own,
// and when ctx settles first run returns ctx.Err() at once and abandons
// fn: its goroutine keeps the old worker, which is replaced, and its
// result is dropped, so a hung computation can neither block the pool nor
// publish.
func (b *workerBox) run(ctx context.Context, detached bool, fn func(w *poolWorker) error) error {
	w := b.w
	var err error
	if detached {
		done := make(chan error, 1)
		go func() { done <- guard(w, fn) }()
		select {
		case err = <-done:
		case <-ctx.Done():
			b.w = newPoolWorker()
			return ctx.Err()
		}
	} else {
		err = guard(w, fn)
	}
	// guard returns a recovered panic as a bare *PanicError.
	if _, panicked := err.(*PanicError); panicked {
		b.w = newPoolWorker()
	}
	return err
}

// guard calls fn on w, converting a panic into a *PanicError.
func guard(w *poolWorker, fn func(w *poolWorker) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(w)
}

// poolWorker is the per-goroutine scratch state of an engine worker: the
// scheduler scratch (which recycles its schedules — the engine measures each
// schedule before requesting the next from the same worker), the pooled
// distributor working set, a spare Result available for recycling by
// assigners that support it, and the result-matrix arena backing each unit
// attempt's out matrix. Everything here is worker-owned: the steady state
// writes no cross-core memory outside the sharded caches. id names the
// worker in trace spans; it is process-unique (replacement workers swapped
// in after a panicking or abandoned attempt get fresh ids, so a trace row
// never mixes two scratch lifetimes).
type poolWorker struct {
	id      int
	scratch *scheduler.Scratch
	dist    *core.Scratch
	spare   *core.Result

	// Fingerprint buffers: runGraph writes each cell's fingerprint into fp
	// and swaps it with fpCached, the one its cached Result was computed
	// under, on every miss.
	fp, fpCached []float64

	// Result-matrix arena: outRows/outFlat are reused by outMatrix across
	// unit attempts on this worker. Safe because a panicked or abandoned
	// attempt makes the box swap in a fresh worker — the hung goroutine
	// keeps the old arena, so buffers are never shared between a live
	// attempt and an abandoned one.
	outRows [][]float64
	outFlat []float64
}

// outMatrix returns a zeroed rows×cols float64 matrix backed by the
// worker's arena, valid until the next outMatrix call on this worker.
func (w *poolWorker) outMatrix(rows, cols int) [][]float64 {
	if cap(w.outRows) < rows {
		w.outRows = make([][]float64, rows)
	}
	if cap(w.outFlat) < rows*cols {
		w.outFlat = make([]float64, rows*cols)
	}
	out := w.outRows[:rows]
	flat := w.outFlat[:rows*cols]
	clear(flat)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
	}
	return out
}

// workerIDs issues poolWorker ids, starting at 1 (0 is the trace's run row).
var workerIDs atomic.Int64

func newPoolWorker() *poolWorker {
	return &poolWorker{id: int(workerIDs.Add(1)), scratch: scheduler.NewScratch(), dist: core.NewScratch()}
}

// assignKey addresses one cached assignment.
type assignKey struct {
	g     *taskgraph.Graph
	label string
	// fp is bitsHash of the fingerprint. Two fingerprints may share it, so
	// a hit is confirmed against the entry's own copy (assignEntry.fp).
	fp uint64
}

// assignEntry is one cached assignment and the fingerprint it was
// computed for.
type assignEntry struct {
	res *core.Result
	fp  []float64
}

// outcomeKey addresses one cached schedule outcome: the inputs of one
// scheduler.Run up to the distribution's content, which res stands for.
type outcomeKey struct {
	g *taskgraph.Graph
	// res is bitsHash of the distribution's Release and Absolute values.
	// Two distributions may share it, so a hit is confirmed against the
	// entry's own Result.
	res uint64
	// model is the modelID of the platform class and size and the
	// scheduler config.
	model uint32
}

// outcomeModel is what an outcome key holds besides the graph and the
// distribution: the platform's class and processor count and the
// scheduler config.
type outcomeModel struct {
	class platform.Class
	procs int
	cfg   scheduler.Config
}

// outcome is one cached schedule outcome: the measured value, the
// schedule's used-processor count (scheduler.Schedule.ProcsUsed, so a row
// can carry the outcome to larger platforms) and the shared Result it was
// scheduled for.
type outcome struct {
	res  *core.Result
	val  float64
	used int
}

// NewOrchestrator starts a shared pool of the given size (GOMAXPROCS when
// workers <= 0). Callers must Close it exactly once, after every run using
// it has returned.
func NewOrchestrator(workers int) *Orchestrator { return newOrchestrator(workers, true) }

// newOrchestrator starts the pool, with its batch, assignment and outcome
// caches when caches is set. A run-owned orchestrator (Config.RunContext
// with a nil Orchestrator) has none: no other table could read them.
func newOrchestrator(workers int, caches bool) *Orchestrator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	o := &Orchestrator{
		jobs:    make(chan poolJob),
		workers: workers,
		seed:    maphash.MakeSeed(),
	}
	if caches {
		o.batches = sfcache.New[generator.BatchID, []*taskgraph.Graph](maxBatchEntries, o.hashBatch)
		o.assigns = sfcache.New[assignKey, assignEntry](maxAssignEntries, o.hashAssign)
		o.outcomes = sfcache.New[outcomeKey, outcome](maxOutcomeEntries, o.hashOutcome)
		o.models = make(map[outcomeModel]uint32)
	}
	for i := 0; i < workers; i++ {
		o.wg.Add(1)
		go o.worker()
	}
	return o
}

// Workers returns the effective pool size (after the GOMAXPROCS default is
// applied), so runs can record how much concurrency was actually available.
func (o *Orchestrator) Workers() int { return o.workers }

// hashBatch picks a batch key's shard. Batch lookups happen once per run,
// so formatting the key is cheap enough.
func (o *Orchestrator) hashBatch(key generator.BatchID) uint64 {
	return maphash.String(o.seed, fmt.Sprint(key))
}

// hashAssign picks an assignment key's shard from the graph's address,
// the label and the fingerprint hash. The address is stable: the key holds
// the graph, and Go never moves a heap object.
func (o *Orchestrator) hashAssign(key assignKey) uint64 {
	var h maphash.Hash
	h.SetSeed(o.seed)
	var p [16]byte
	binary.LittleEndian.PutUint64(p[:8], uint64(reflect.ValueOf(key.g).Pointer()))
	binary.LittleEndian.PutUint64(p[8:], key.fp)
	h.Write(p[:])
	h.WriteString(key.label)
	return h.Sum64()
}

// hashOutcome picks an outcome key's shard from all three of its fields.
func (o *Orchestrator) hashOutcome(key outcomeKey) uint64 {
	var h maphash.Hash
	h.SetSeed(o.seed)
	var p [20]byte
	binary.LittleEndian.PutUint64(p[:8], uint64(reflect.ValueOf(key.g).Pointer()))
	binary.LittleEndian.PutUint64(p[8:16], key.res)
	binary.LittleEndian.PutUint32(p[16:], key.model)
	h.Write(p[:])
	return h.Sum64()
}

// modelID returns the id interned for m. Ids start at 1: 0 marks a cell
// the outcome cache does not key.
func (o *Orchestrator) modelID(m outcomeModel) uint32 {
	o.modelMu.Lock()
	defer o.modelMu.Unlock()
	id, ok := o.models[m]
	if !ok {
		id = uint32(len(o.models)) + 1
		o.models[m] = id
	}
	return id
}

// Close shuts the pool down and waits for the workers to exit. No run may
// be active or submitted afterwards.
func (o *Orchestrator) Close() {
	close(o.jobs)
	o.wg.Wait()
}

func (o *Orchestrator) worker() {
	defer o.wg.Done()
	box := &workerBox{w: newPoolWorker()}
	for j := range o.jobs {
		j.rec.PoolJobStart()
		runJob(j, box)
		j.rec.PoolJobEnd()
	}
}

// runJob runs one job under the box's boundary as a last resort: the
// engine and Do run their attempts behind it already, but a panic escaping
// a job anyway (a bug in the run layer) must not kill the shared worker —
// that would shrink the pool for every run and, once all workers died,
// deadlock every submitter and Close. The job's own deferred bookkeeping
// (its WaitGroup slot) has already run by the time the panic reaches here,
// so the submitting run still drains.
func runJob(j poolJob, box *workerBox) {
	box.run(context.Background(), false, func(*poolWorker) error {
		j.fn(box)
		return nil
	})
}

// submit enqueues a job, or gives up when cancel is closed first (the
// submitting run failed or was cancelled while the queue was full — every
// worker busy). Returns whether the job was enqueued; a false return means
// the caller still owns the job's WaitGroup slot and must release it.
func (o *Orchestrator) submit(j poolJob, cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		// Checked first so a cancelled run never enqueues more work, even
		// when a worker happens to be free.
		return false
	default:
	}
	select {
	case o.jobs <- j:
		return true
	case <-cancel:
		return false
	}
}

// batch returns the cached batch for key, generating it via gen once per
// key among concurrent callers. A failed generation is not cached: it is
// deterministic, so the next run regenerates it and fails the same way.
// Waiters block with their run's context, so a cancelled run never hangs on
// another run's generation.
func (o *Orchestrator) batch(ctx context.Context, key generator.BatchID, rec *metrics.Recorder,
	gen func() ([]*taskgraph.Graph, error)) ([]*taskgraph.Graph, error) {

	graphs, out, err := o.batches.Do(ctx, key, func(sfcache.Outcome) ([]*taskgraph.Graph, error) {
		rec.BatchMiss()
		return gen()
	})
	if out == sfcache.Hit {
		rec.BatchHit()
	}
	return graphs, err
}

// assignment resolves one (graph, assigner, fingerprint) assignment through
// the cross-table cache: a hit returns the shared Result; a miss computes it
// (recording assign-stage time and search counters on rec) and publishes it
// unless the cache refuses it. The second return reports whether the
// Result is shared cache storage — shared results must not be recycled by
// the caller.
//
// The key holds a hash of the fingerprint, and each published entry its
// own copy of the vector. A hit whose vector differs (another fingerprint
// with the same hash) is computed uncached, so it is never answered with
// the other fingerprint's Result and never replaces it. A waiter whose
// owner fails gets the owner's error unconfirmed, as before: failures are
// never cached, so a retry computes afresh.
func (o *Orchestrator) assignment(ctx context.Context, gg *taskgraph.Graph, sys *platform.System,
	asg Assigner, label string, fp []float64, rec *metrics.Recorder,
	w *poolWorker) (*core.Result, bool, error) {

	compute := func() (*core.Result, error) {
		rec.CrossMiss()
		t0 := rec.Start()
		// Compute with the worker's pooled scratch but never its spare
		// Result: a published Result is shared cache storage and must own
		// fresh slices. The assigner gets the attempt context, so an
		// abandoned (timed-out) slicing attempt aborts its DP at the next
		// round boundary and releases its slot instead of publishing — a
		// deadline-dead unit can never seed the shared caches.
		res, err := asg.Assign(ctx, gg, sys, nil, w.dist)
		rec.Done(metrics.StageAssign, t0)
		if err == nil {
			rec.AddSearch(SearchCounters(res.Search))
		}
		return res, err
	}
	key := assignKey{g: gg, label: label, fp: bitsHash(fp)}
	e, out, err := o.assigns.Do(ctx, key, func(out sfcache.Outcome) (assignEntry, error) {
		if out != sfcache.Miss {
			rec.CrossRejected()
		}
		if out == sfcache.Flushed {
			rec.CrossFlush()
		}
		res, err := compute()
		if err != nil || out == sfcache.Rejected {
			return assignEntry{res: res}, err
		}
		// Only a published entry keeps a copy of its fingerprint.
		return assignEntry{res: res, fp: slices.Clone(fp)}, nil
	})
	if out == sfcache.Hit && err == nil {
		if !sameBits(e.fp, fp) {
			res, err := compute()
			return res, false, err
		}
		rec.CrossHit()
	}
	return e.res, err == nil && out != sfcache.Rejected, err
}

// outcome resolves one schedule outcome through the cross-table cache. res
// must be shared cache storage, never recycled, since a published entry
// keeps it to confirm later hits. A hit whose entry was scheduled for a
// Result with the same Release and Absolute bits returns the entry's value
// and used-processor count with hit set. Otherwise run schedules and
// measures the input for real, and a miss publishes its outcome unless the
// cache refuses it. A colliding entry (another distribution with the same
// hash) is never answered and never replaced, and a waiter whose owner
// failed runs the input itself.
func (o *Orchestrator) outcome(ctx context.Context, key outcomeKey, res *core.Result,
	run func() (float64, int, error)) (val float64, used int, hit bool, err error) {

	e, out, err := o.outcomes.Do(ctx, key, func(sfcache.Outcome) (outcome, error) {
		val, used, err := run()
		return outcome{res: res, val: val, used: used}, err
	})
	if out != sfcache.Hit {
		return e.val, e.used, false, err
	}
	if err == nil && sameResult(e.res, res) {
		return e.val, e.used, true, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return 0, 0, false, cerr
	}
	val, used, err = run()
	return val, used, false, err
}

// sameResult reports whether a and b have the same Release and Absolute
// bits: the equality an outcome key stands for.
func sameResult(a, b *core.Result) bool {
	return a == b || sameBits(a.Release, b.Release) && sameBits(a.Absolute, b.Absolute)
}

// Workbench is the exported view of one pool worker's scratch state,
// handed to Orchestrator.Do callbacks: the serving layer (internal/serve)
// runs its request pipeline on the same pooled working sets the sweep
// engine uses, so a mixed process (a daemon also running sweeps) shares
// one bounded pool and one set of arenas.
type Workbench struct{ w *poolWorker }

// Scheduler returns the worker's pooled scheduler scratch (it recycles its
// schedules: callers must consume each Schedule before the next Run on the
// same Workbench).
func (wb *Workbench) Scheduler() *scheduler.Scratch { return wb.w.scratch }

// Distributor returns the worker's pooled distribution working set.
func (wb *Workbench) Distributor() *core.Scratch { return wb.w.dist }

// Worker returns the pool worker's id (1-based), for span attribution.
func (wb *Workbench) Worker() int { return wb.w.id }

// Do runs fn on one of the orchestrator's pool workers and returns its
// error. It is the serving layer's unit of pool work, run detached on the
// box's boundary with the engine's abandonment semantics (DESIGN.md §9):
//
//   - Do blocks until a worker picks the job up, or returns ctx.Err()
//     without running fn when ctx settles first (the job is never
//     enqueued after cancellation).
//   - a panic in fn becomes a *PanicError and the torn worker is retired,
//     never handed to another job.
//   - when ctx settles while fn is still running, Do returns ctx.Err()
//     immediately and abandons fn's goroutine — it keeps the old worker
//     (which is retired) and its return value is discarded, so a hung or
//     deadline-dead computation can never block the pool or publish.
//
// The Workbench is only valid inside fn; fn must not retain it.
func (o *Orchestrator) Do(ctx context.Context, rec *metrics.Recorder, fn func(wb *Workbench) error) error {
	res := make(chan error, 1)
	ok := o.submit(poolJob{rec: rec, fn: func(box *workerBox) {
		res <- box.run(ctx, true, func(w *poolWorker) error { return fn(&Workbench{w: w}) })
	}}, ctx.Done())
	if !ok {
		return ctx.Err()
	}
	return <-res
}

// SearchCounters converts one distribution's search stats into the
// recorder's counter form; every caller of Recorder.AddSearch goes
// through it, so a new counter is mapped in one place.
func SearchCounters(st core.SearchStats) metrics.SearchCounters {
	return metrics.SearchCounters{
		Iterations:     int64(st.Iterations),
		StartsExamined: int64(st.StartsExamined),
		DPRuns:         int64(st.DPRuns),
		CacheReuses:    int64(st.CacheReuses),
		DPRows:         int64(st.DPRows),
		DPCells:        int64(st.DPCells),
	}
}

// bitsHash hashes the lengths and the bit patterns of vs: the content
// sameBits compares. It keys the cross-table caches, each hit confirmed
// with sameBits.
func bitsHash(vs ...[]float64) uint64 {
	var h uint64
	for _, v := range vs {
		h = (h ^ uint64(len(v))) * 0x9e3779b97f4a7c15
		for _, x := range v {
			h = (h ^ math.Float64bits(x)) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
	}
	return h
}

// sameBits reports whether a and b hold the same float64 bit patterns: the
// one equality of fingerprints and distributions. nil and empty are equal;
// +0 and -0 are not, and a NaN equals only a NaN of the same bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
