// Package metrics is the lightweight, concurrency-safe instrumentation
// layer of the experiment engine: atomic per-stage counters, wall-time
// histograms and fingerprint-cache traffic counts. A nil *Recorder is a
// valid no-op sink, so instrumented code never branches on "metrics off";
// the hot path pays one time.Now per stage and three atomic adds per
// observation.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of the experiment engine.
type Stage int

// The engine's pipeline stages, in execution order.
const (
	StageGenerate    Stage = iota // workload batch generation
	StageFingerprint              // platform-dependence fingerprinting
	StageTransform                // graph transformation (assign-first flows)
	StageAssign                   // deadline distribution
	StageSchedule                 // list scheduling
	StageMeasure                  // measure extraction
	NumStages
)

var stageNames = [NumStages]string{
	"generate", "fingerprint", "transform", "assign", "schedule", "measure",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// numBuckets spans <1µs up to ≥1s in powers of two; the last bucket absorbs
// everything larger.
const numBuckets = 22

// bucketIndex maps a duration to its histogram bucket: bucket 0 holds
// observations below 1µs, bucket i holds [2^(i-1), 2^i) µs.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	i := bits.Len64(uint64(us))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketBound returns the exclusive upper bound of bucket i, or 0 for the
// unbounded last bucket.
func bucketBound(i int) time.Duration {
	if i >= numBuckets-1 {
		return 0
	}
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// stageRecorder accumulates one stage's counters.
type stageRecorder struct {
	count   atomic.Int64
	nanos   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// observe records one wall-time observation: the one path behind
// Recorder.Observe, Recorder.ObserveRequest and Histogram.Observe.
func (sr *stageRecorder) observe(d time.Duration) {
	sr.count.Add(1)
	sr.nanos.Add(int64(d))
	sr.buckets[bucketIndex(d)].Add(1)
}

// Recorder accumulates per-stage timings and cache traffic. All methods are
// safe for concurrent use and no-ops on a nil receiver. The zero value is
// ready to use.
type Recorder struct {
	stages      [NumStages]stageRecorder
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Cross-sweep orchestration traffic: the content-addressed batch cache
	// and the cross-table assignment cache (see
	// internal/experiment.Orchestrator), plus shared-pool occupancy.
	batchHits     atomic.Int64
	batchMisses   atomic.Int64
	crossHits     atomic.Int64
	crossMisses   atomic.Int64
	crossRejected atomic.Int64
	crossFlushes  atomic.Int64
	poolJobs      atomic.Int64
	poolBusy      atomic.Int64
	poolPeak      atomic.Int64
	poolWorkers   atomic.Int64

	// Schedule reuse: cells whose schedule outcome the engine took from an
	// earlier run instead of scheduling (the schedule stage observes only
	// real runs) — the row's schedule past its idle processors, or the
	// cross-table outcome cache.
	reusedIdle  atomic.Int64
	reusedCross atomic.Int64

	// Critical-path search counters, accumulated from the distribution
	// core's per-run SearchStats.
	searchIterations atomic.Int64
	searchStarts     atomic.Int64
	searchDPRuns     atomic.Int64
	searchReuses     atomic.Int64
	searchDPRows     atomic.Int64
	searchDPCells    atomic.Int64

	// Fault-tolerance counters of the run layer: recovered unit panics,
	// attempts abandoned by the per-unit deadline, retries issued, and
	// faults injected by the chaos harness.
	unitPanics     atomic.Int64
	unitTimeouts   atomic.Int64
	unitRetries    atomic.Int64
	faultsInjected atomic.Int64

	// Checkpoint-journal traffic: units replayed from journal.jsonl by a
	// -resume run versus units computed (and committed) this run.
	journalReplays  atomic.Int64
	journalComputes atomic.Int64

	// Request-level latency (dlserve): one observation per served request,
	// end to end, across all stages. Kept outside the Stages array so that
	// engine snapshots (BENCH_*.json, -stats) are unchanged when no
	// requests were observed.
	requests stageRecorder
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Observe records one wall-time observation for stage s.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil || s < 0 || s >= NumStages {
		return
	}
	r.stages[s].observe(d)
}

// Start returns the current time, or the zero time on a nil receiver so
// that instrumented hot paths skip the clock read entirely when metrics are
// off. Pair with Done.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Done records the wall time elapsed since a Start on the same recorder.
// A no-op (without a clock read) on a nil receiver.
func (r *Recorder) Done(s Stage, t0 time.Time) {
	if r == nil {
		return
	}
	r.Observe(s, time.Since(t0))
}

// CacheHit records a fingerprint-cache hit (a distribution reused across
// the size sweep).
func (r *Recorder) CacheHit() {
	if r != nil {
		r.cacheHits.Add(1)
	}
}

// CacheMiss records a fingerprint-cache miss (a fresh Assign).
func (r *Recorder) CacheMiss() {
	if r != nil {
		r.cacheMisses.Add(1)
	}
}

// BatchHit records a batch-cache hit (a workload batch reused across
// tables instead of regenerated).
func (r *Recorder) BatchHit() {
	if r != nil {
		r.batchHits.Add(1)
	}
}

// BatchMiss records a batch-cache miss (a batch generated from scratch).
func (r *Recorder) BatchMiss() {
	if r != nil {
		r.batchMisses.Add(1)
	}
}

// CrossHit records a cross-table assignment-cache hit (a distribution
// reused across tables of a sweep set).
func (r *Recorder) CrossHit() {
	if r != nil {
		r.crossHits.Add(1)
	}
}

// CrossMiss records a cross-table assignment-cache miss (a distribution
// computed and, when cacheable, published for later tables).
func (r *Recorder) CrossMiss() {
	if r != nil {
		r.crossMisses.Add(1)
	}
}

// CrossRejected records a cross-table assignment-cache publish refused
// because the cache was at capacity (see experiment.Orchestrator): the
// distribution was computed but later tables cannot reuse it.
func (r *Recorder) CrossRejected() {
	if r != nil {
		r.crossRejected.Add(1)
	}
}

// CrossFlush records a capacity reset of the cross-table assignment cache:
// a saturated cache dropped its entries so admission could resume.
func (r *Recorder) CrossFlush() {
	if r != nil {
		r.crossFlushes.Add(1)
	}
}

// ReusedIdle records a cell that reused its row's schedule past the
// processors that schedule left idle instead of scheduling.
func (r *Recorder) ReusedIdle() {
	if r != nil {
		r.reusedIdle.Add(1)
	}
}

// ReusedCross records a cell answered by the cross-table schedule-outcome
// cache instead of scheduling.
func (r *Recorder) ReusedCross() {
	if r != nil {
		r.reusedCross.Add(1)
	}
}

// SetPoolWorkers records the effective shared-pool worker count, so
// snapshots can report peak occupancy against the pool's actual size
// rather than leaving readers to guess it from the host. The largest pool
// observed wins (several runs may share a recorder).
func (r *Recorder) SetPoolWorkers(n int) {
	if r == nil {
		return
	}
	for {
		cur := r.poolWorkers.Load()
		if int64(n) <= cur || r.poolWorkers.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// PoolJobStart records a shared-pool worker picking up a job: it bumps the
// job count and the busy gauge, tracking the peak occupancy. Pair with
// PoolJobEnd.
func (r *Recorder) PoolJobStart() {
	if r == nil {
		return
	}
	r.poolJobs.Add(1)
	busy := r.poolBusy.Add(1)
	for {
		peak := r.poolPeak.Load()
		if busy <= peak || r.poolPeak.CompareAndSwap(peak, busy) {
			return
		}
	}
}

// PoolJobEnd records a shared-pool worker finishing a job.
func (r *Recorder) PoolJobEnd() {
	if r != nil {
		r.poolBusy.Add(-1)
	}
}

// AddSearch accumulates one distribution's critical-path search counters:
// slicing iterations, start candidates examined, per-start DP sweeps run,
// memoized candidates reused without a sweep, and the DP rows and cells
// those sweeps touched. (A metrics-owned type so callers need not depend
// on the distribution core's stats type.)
func (r *Recorder) AddSearch(c SearchCounters) {
	if r == nil {
		return
	}
	r.searchIterations.Add(c.Iterations)
	r.searchStarts.Add(c.StartsExamined)
	r.searchDPRuns.Add(c.DPRuns)
	r.searchReuses.Add(c.CacheReuses)
	r.searchDPRows.Add(c.DPRows)
	r.searchDPCells.Add(c.DPCells)
}

// UnitPanic records a recovered graph-pipeline panic.
func (r *Recorder) UnitPanic() {
	if r != nil {
		r.unitPanics.Add(1)
	}
}

// UnitTimedOut records an attempt abandoned by the per-unit deadline.
func (r *Recorder) UnitTimedOut() {
	if r != nil {
		r.unitTimeouts.Add(1)
	}
}

// UnitRetry records a retry of a failed unit of pool work.
func (r *Recorder) UnitRetry() {
	if r != nil {
		r.unitRetries.Add(1)
	}
}

// FaultInjected records a fault injected by the chaos harness.
func (r *Recorder) FaultInjected() {
	if r != nil {
		r.faultsInjected.Add(1)
	}
}

// JournalReplay records one unit prefilled from the checkpoint journal
// instead of being recomputed (dlexp -resume).
func (r *Recorder) JournalReplay() {
	if r != nil {
		r.journalReplays.Add(1)
	}
}

// JournalCompute records one unit computed and committed to the checkpoint
// journal this run.
func (r *Recorder) JournalCompute() {
	if r != nil {
		r.journalComputes.Add(1)
	}
}

// ObserveRequest records one served request's end-to-end wall time
// (dlserve). Request latency lives in its own histogram — see
// Snapshot.Request — so batch-engine stage output is untouched.
func (r *Recorder) ObserveRequest(d time.Duration) {
	if r == nil {
		return
	}
	r.requests.observe(d)
}

// Histogram is a standalone wall-time histogram over the package's
// power-of-two buckets, for recorders outside the engine's fixed stage set
// (per-latency-class request durations in dlserve). The zero value is ready
// to use; all methods are safe for concurrent use and no-ops on a nil
// receiver, matching the Recorder contract.
type Histogram struct {
	rec stageRecorder
}

// Observe records one wall-time observation.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.rec.observe(d)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.rec.count.Load()
}

// Snapshot freezes the histogram as a StageStats named name, with the same
// histogram-interpolated P50/P95/P99 the engine stages report.
func (h *Histogram) Snapshot(name string) StageStats {
	if h == nil {
		return StageStats{Stage: name}
	}
	return snapStage(name, &h.rec)
}

// Bucket is one non-empty histogram bucket of a stage snapshot. UpTo is the
// exclusive upper bound ("1ms"); the unbounded last bucket reports "inf".
type Bucket struct {
	UpTo  string `json:"upTo"`
	Count int64  `json:"count"`
}

// StageStats is the frozen view of one stage. P50/P95/P99 are derived from
// the power-of-two histogram at snapshot time (linear interpolation within
// a bucket), so they are estimates with at most one-bucket resolution.
type StageStats struct {
	Stage      string   `json:"stage"`
	Count      int64    `json:"count"`
	TotalNanos int64    `json:"totalNanos"`
	P50Nanos   int64    `json:"p50Nanos,omitempty"`
	P95Nanos   int64    `json:"p95Nanos,omitempty"`
	P99Nanos   int64    `json:"p99Nanos,omitempty"`
	Histogram  []Bucket `json:"histogram,omitempty"`
}

// Total returns the stage's accumulated wall time.
func (s StageStats) Total() time.Duration { return time.Duration(s.TotalNanos) }

// Mean returns the mean observation, or 0 without observations.
func (s StageStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.TotalNanos / s.Count)
}

// P50 returns the histogram-derived median observation.
func (s StageStats) P50() time.Duration { return time.Duration(s.P50Nanos) }

// P95 returns the histogram-derived 95th-percentile observation.
func (s StageStats) P95() time.Duration { return time.Duration(s.P95Nanos) }

// P99 returns the histogram-derived 99th-percentile observation.
func (s StageStats) P99() time.Duration { return time.Duration(s.P99Nanos) }

// quantile estimates the q-quantile (0 < q <= 1) from raw bucket counts:
// the observation ranked ceil(q*count) falls in some bucket [lo, hi); its
// value is interpolated linearly by the rank's position inside that bucket.
// The unbounded last bucket reports its lower bound.
func quantile(buckets *[numBuckets]int64, count int64, q float64) time.Duration {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := buckets[i]
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		hi := bucketBound(i)
		if hi == 0 {
			// Unbounded last bucket: no upper bound to interpolate toward.
			return bucketBound(i - 1)
		}
		var lo time.Duration
		if i > 0 {
			lo = bucketBound(i - 1)
		}
		frac := float64(rank-cum) / float64(n)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return bucketBound(numBuckets - 2)
}

// SearchCounters is the frozen view of the distribution core's
// critical-path search work.
type SearchCounters struct {
	Iterations     int64 `json:"iterations"`
	StartsExamined int64 `json:"startsExamined"`
	DPRuns         int64 `json:"dpRuns"`
	CacheReuses    int64 `json:"cacheReuses"`
	DPRows         int64 `json:"dpRows"`
	DPCells        int64 `json:"dpCells"`
}

// ReuseRate returns CacheReuses/StartsExamined, or 0 without search
// traffic: the fraction of start candidates answered from the memo instead
// of a DP sweep.
func (s SearchCounters) ReuseRate() float64 {
	if s.StartsExamined == 0 {
		return 0
	}
	return float64(s.CacheReuses) / float64(s.StartsExamined)
}

// Snapshot is a consistent-enough point-in-time copy of a Recorder (each
// counter is read atomically; counters of an in-flight observation may be
// split across two snapshots).
type Snapshot struct {
	Stages        []StageStats `json:"stages"`
	CacheHits     int64        `json:"cacheHits"`
	CacheMisses   int64        `json:"cacheMisses"`
	BatchHits     int64        `json:"batchHits,omitempty"`
	BatchMisses   int64        `json:"batchMisses,omitempty"`
	CrossHits     int64        `json:"crossHits,omitempty"`
	CrossMisses   int64        `json:"crossMisses,omitempty"`
	CrossRejected int64        `json:"crossRejected,omitempty"`
	CrossFlushes  int64        `json:"crossFlushes,omitempty"`
	PoolJobs      int64        `json:"poolJobs,omitempty"`
	PoolPeak      int64        `json:"poolPeak,omitempty"`
	// ReusedIdle and ReusedCross count the cells whose schedule was reused
	// (Recorder.ReusedIdle, Recorder.ReusedCross); the schedule stage's
	// count is the cells scheduled for real.
	ReusedIdle  int64 `json:"reusedIdle,omitempty"`
	ReusedCross int64 `json:"reusedCross,omitempty"`

	// Hardware context, read at snapshot time: without it, poolPeak and
	// throughput numbers are uninterpretable (a recorded poolPeak of 1 can
	// mean a serialization bug or a 1-core host). PoolWorkers is the
	// effective size of the shared worker pool, when one was used.
	Cpus        int   `json:"cpus"`
	Gomaxprocs  int   `json:"gomaxprocs"`
	PoolWorkers int64 `json:"poolWorkers,omitempty"`

	UnitPanics     int64 `json:"unitPanics,omitempty"`
	UnitTimeouts   int64 `json:"unitTimeouts,omitempty"`
	UnitRetries    int64 `json:"unitRetries,omitempty"`
	FaultsInjected int64 `json:"faultsInjected,omitempty"`

	JournalReplays  int64 `json:"journalReplays,omitempty"`
	JournalComputes int64 `json:"journalComputes,omitempty"`

	// Request is the end-to-end request-latency summary of a serving
	// process (dlserve); nil when no requests were observed, so engine
	// snapshots serialize exactly as before the serving layer existed.
	Request *StageStats `json:"request,omitempty"`

	Search SearchCounters `json:"search"`
}

// snapStage freezes one stageRecorder. One coherent copy of the buckets is
// taken up front: quantiles and the reported histogram come from the same
// reads, so they always agree even while observations stream in
// concurrently.
func snapStage(name string, sr *stageRecorder) StageStats {
	st := StageStats{
		Stage:      name,
		Count:      sr.count.Load(),
		TotalNanos: sr.nanos.Load(),
	}
	var buckets [numBuckets]int64
	var histCount int64
	for i := 0; i < numBuckets; i++ {
		buckets[i] = sr.buckets[i].Load()
		histCount += buckets[i]
	}
	for i := 0; i < numBuckets; i++ {
		if buckets[i] == 0 {
			continue
		}
		upTo := "inf"
		if b := bucketBound(i); b != 0 {
			upTo = b.String()
		}
		st.Histogram = append(st.Histogram, Bucket{UpTo: upTo, Count: buckets[i]})
	}
	st.P50Nanos = int64(quantile(&buckets, histCount, 0.50))
	st.P95Nanos = int64(quantile(&buckets, histCount, 0.95))
	st.P99Nanos = int64(quantile(&buckets, histCount, 0.99))
	return st
}

// Snapshot freezes the recorder's counters. A nil Recorder yields an empty
// snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	snap.Stages = make([]StageStats, 0, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		snap.Stages = append(snap.Stages, snapStage(s.String(), &r.stages[s]))
	}
	if req := snapStage("request", &r.requests); req.Count > 0 {
		snap.Request = &req
	}
	snap.CacheHits = r.cacheHits.Load()
	snap.CacheMisses = r.cacheMisses.Load()
	snap.BatchHits = r.batchHits.Load()
	snap.BatchMisses = r.batchMisses.Load()
	snap.CrossHits = r.crossHits.Load()
	snap.CrossMisses = r.crossMisses.Load()
	snap.CrossRejected = r.crossRejected.Load()
	snap.CrossFlushes = r.crossFlushes.Load()
	snap.ReusedIdle = r.reusedIdle.Load()
	snap.ReusedCross = r.reusedCross.Load()
	snap.PoolJobs = r.poolJobs.Load()
	snap.PoolPeak = r.poolPeak.Load()
	snap.Cpus = runtime.NumCPU()
	snap.Gomaxprocs = runtime.GOMAXPROCS(0)
	snap.PoolWorkers = r.poolWorkers.Load()
	snap.UnitPanics = r.unitPanics.Load()
	snap.UnitTimeouts = r.unitTimeouts.Load()
	snap.UnitRetries = r.unitRetries.Load()
	snap.FaultsInjected = r.faultsInjected.Load()
	snap.JournalReplays = r.journalReplays.Load()
	snap.JournalComputes = r.journalComputes.Load()
	snap.Search = SearchCounters{
		Iterations:     r.searchIterations.Load(),
		StartsExamined: r.searchStarts.Load(),
		DPRuns:         r.searchDPRuns.Load(),
		CacheReuses:    r.searchReuses.Load(),
		DPRows:         r.searchDPRows.Load(),
		DPCells:        r.searchDPCells.Load(),
	}
	return snap
}

// CacheHitRate returns hits/(hits+misses), or 0 without cache traffic.
func (s Snapshot) CacheHitRate() float64 {
	return rate(s.CacheHits, s.CacheMisses)
}

// BatchHitRate returns the batch-cache hit rate, or 0 without traffic.
func (s Snapshot) BatchHitRate() float64 {
	return rate(s.BatchHits, s.BatchMisses)
}

// CrossHitRate returns the cross-table assignment-cache hit rate, or 0
// without traffic.
func (s Snapshot) CrossHitRate() float64 {
	return rate(s.CrossHits, s.CrossMisses)
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// String renders the snapshot as the -stats table: one line per active
// stage plus the cache summary.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %12s %12s %12s %12s\n",
		"stage", "count", "total", "mean", "p50", "p95", "p99")
	for _, st := range s.Stages {
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %10d %12s %12s %12s %12s %12s\n",
			st.Stage, st.Count, st.Total().Round(time.Microsecond), st.Mean().Round(time.Nanosecond),
			st.P50().Round(time.Nanosecond), st.P95().Round(time.Nanosecond), st.P99().Round(time.Nanosecond))
	}
	fmt.Fprintf(&b, "fingerprint cache: %d hits, %d misses (%.1f%% hit rate)",
		s.CacheHits, s.CacheMisses, 100*s.CacheHitRate())
	if s.BatchHits+s.BatchMisses > 0 {
		fmt.Fprintf(&b, "\nbatch cache: %d hits, %d misses (%.1f%% hit rate)",
			s.BatchHits, s.BatchMisses, 100*s.BatchHitRate())
	}
	if s.CrossHits+s.CrossMisses > 0 {
		fmt.Fprintf(&b, "\ncross-table cache: %d hits, %d misses (%.1f%% hit rate)",
			s.CrossHits, s.CrossMisses, 100*s.CrossHitRate())
		if s.CrossRejected+s.CrossFlushes > 0 {
			fmt.Fprintf(&b, ", %d publishes rejected at capacity, %d flushes",
				s.CrossRejected, s.CrossFlushes)
		}
	}
	if reused := s.ReusedIdle + s.ReusedCross; reused > 0 {
		cells := reused
		if int(StageSchedule) < len(s.Stages) {
			cells += s.Stages[StageSchedule].Count
		}
		fmt.Fprintf(&b, "\nschedule reuse: %d of %d cells (%d past idle processors, %d cross-table)",
			reused, cells, s.ReusedIdle, s.ReusedCross)
	}
	if s.PoolJobs > 0 {
		fmt.Fprintf(&b, "\nshared pool: %d jobs, peak occupancy %d of %d workers",
			s.PoolJobs, s.PoolPeak, s.PoolWorkers)
	}
	fmt.Fprintf(&b, "\nhardware: %d cpus, gomaxprocs %d", s.Cpus, s.Gomaxprocs)
	if s.UnitPanics+s.UnitTimeouts+s.UnitRetries+s.FaultsInjected > 0 {
		fmt.Fprintf(&b, "\nfault tolerance: %d panics recovered, %d deadline timeouts, %d retries, %d faults injected",
			s.UnitPanics, s.UnitTimeouts, s.UnitRetries, s.FaultsInjected)
	}
	if s.JournalReplays+s.JournalComputes > 0 {
		fmt.Fprintf(&b, "\ncheckpoint journal: %d units replayed, %d computed",
			s.JournalReplays, s.JournalComputes)
	}
	if sc := s.Search; sc.StartsExamined > 0 {
		fmt.Fprintf(&b, "\ncritical-path search: %d iterations, %d starts, %d DP runs, %d memo reuses (%.1f%% reuse), %d DP rows, %d DP cells",
			sc.Iterations, sc.StartsExamined, sc.DPRuns, sc.CacheReuses, 100*sc.ReuseRate(), sc.DPRows, sc.DPCells)
	}
	return b.String()
}
