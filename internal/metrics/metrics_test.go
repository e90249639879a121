package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"generate", "fingerprint", "transform", "assign", "schedule", "measure"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Errorf("Stage(%d) = %q, want %q", s, s.String(), want[s])
		}
	}
	if got := Stage(99).String(); got != "stage(99)" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},       // [1µs, 2µs)
		{3 * time.Microsecond, 2},   // [2µs, 4µs)
		{time.Millisecond, 10},      // 1000µs ∈ [512µs, 1024µs)
		{time.Hour, numBuckets - 1}, // absorbed by the last bucket
		{2 * time.Second, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestObserveAndSnapshot(t *testing.T) {
	r := New()
	r.Observe(StageAssign, 10*time.Microsecond)
	r.Observe(StageAssign, 30*time.Microsecond)
	r.Observe(StageSchedule, time.Millisecond)
	r.CacheHit()
	r.CacheHit()
	r.CacheMiss()

	snap := r.Snapshot()
	if len(snap.Stages) != int(NumStages) {
		t.Fatalf("snapshot has %d stages, want %d", len(snap.Stages), NumStages)
	}
	assign := snap.Stages[StageAssign]
	if assign.Count != 2 || assign.Total() != 40*time.Microsecond {
		t.Errorf("assign stage = %d obs / %v total, want 2 / 40µs", assign.Count, assign.Total())
	}
	if assign.Mean() != 20*time.Microsecond {
		t.Errorf("assign mean = %v, want 20µs", assign.Mean())
	}
	if len(assign.Histogram) == 0 {
		t.Error("assign histogram empty")
	}
	var histTotal int64
	for _, b := range assign.Histogram {
		histTotal += b.Count
	}
	if histTotal != assign.Count {
		t.Errorf("histogram counts sum to %d, want %d", histTotal, assign.Count)
	}
	if snap.CacheHits != 2 || snap.CacheMisses != 1 {
		t.Errorf("cache = %d/%d, want 2 hits, 1 miss", snap.CacheHits, snap.CacheMisses)
	}
	if got := snap.CacheHitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", got)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Observe(StageAssign, time.Second) // must not panic
	r.CacheHit()
	r.CacheMiss()
	r.UnitPanic()
	r.UnitTimedOut()
	r.UnitRetry()
	r.FaultInjected()
	snap := r.Snapshot()
	if len(snap.Stages) != 0 || snap.CacheHits != 0 || snap.CacheMisses != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", snap)
	}
	if snap.CacheHitRate() != 0 {
		t.Error("nil recorder hit rate nonzero")
	}
}

func TestObserveOutOfRangeStage(t *testing.T) {
	r := New()
	r.Observe(Stage(-1), time.Second)
	r.Observe(NumStages, time.Second)
	for _, st := range r.Snapshot().Stages {
		if st.Count != 0 {
			t.Errorf("stage %s recorded an out-of-range observation", st.Stage)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	const workers, perWorker = 8, 1000
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Observe(StageSchedule, time.Microsecond)
				if i%2 == 0 {
					r.CacheHit()
				} else {
					r.CacheMiss()
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	sched := snap.Stages[StageSchedule]
	if sched.Count != workers*perWorker {
		t.Errorf("schedule count = %d, want %d", sched.Count, workers*perWorker)
	}
	if sched.Total() != workers*perWorker*time.Microsecond {
		t.Errorf("schedule total = %v", sched.Total())
	}
	if snap.CacheHits+snap.CacheMisses != workers*perWorker {
		t.Errorf("cache traffic = %d, want %d", snap.CacheHits+snap.CacheMisses, workers*perWorker)
	}
}

func TestSnapshotString(t *testing.T) {
	r := New()
	r.Observe(StageGenerate, 3*time.Millisecond)
	r.CacheMiss()
	out := r.Snapshot().String()
	for _, want := range []string{"stage", "generate", "fingerprint cache", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	// Idle stages are omitted from the table.
	if strings.Contains(out, "transform") {
		t.Errorf("idle stage rendered:\n%s", out)
	}
}

func TestSearchCounters(t *testing.T) {
	r := New()
	r.AddSearch(SearchCounters{Iterations: 3, StartsExamined: 40, DPRuns: 10, CacheReuses: 30, DPRows: 70, DPCells: 90})
	r.AddSearch(SearchCounters{Iterations: 2, StartsExamined: 10, DPRuns: 10, DPRows: 30, DPCells: 40})
	snap := r.Snapshot()
	want := SearchCounters{Iterations: 5, StartsExamined: 50, DPRuns: 20, CacheReuses: 30, DPRows: 100, DPCells: 130}
	if snap.Search != want {
		t.Errorf("Search = %+v, want %+v", snap.Search, want)
	}
	if rate := snap.Search.ReuseRate(); rate != 0.6 {
		t.Errorf("ReuseRate = %v, want 0.6", rate)
	}
	if got := (SearchCounters{}).ReuseRate(); got != 0 {
		t.Errorf("empty ReuseRate = %v, want 0", got)
	}

	// The -stats rendering surfaces the search line only when there was
	// search traffic.
	if s := snap.String(); !strings.Contains(s, "critical-path search: 5 iterations, 50 starts, 20 DP runs, 30 memo reuses (60.0% reuse), 100 DP rows, 130 DP cells") {
		t.Errorf("String() missing search line:\n%s", s)
	}
	if s := (Snapshot{}).String(); strings.Contains(s, "critical-path search") {
		t.Errorf("empty snapshot should omit search line:\n%s", s)
	}

	// Nil recorders swallow search counters like everything else.
	var nilRec *Recorder
	nilRec.AddSearch(SearchCounters{Iterations: 1, StartsExamined: 1, DPRuns: 1, CacheReuses: 1, DPRows: 1, DPCells: 1})
	if nilRec.Snapshot().Search != (SearchCounters{}) {
		t.Error("nil recorder accumulated search counters")
	}
}

func TestFaultToleranceCounters(t *testing.T) {
	r := New()
	if strings.Contains(r.Snapshot().String(), "fault tolerance:") {
		t.Error("fault-tolerance line shown with zero counters")
	}
	r.UnitPanic()
	r.UnitPanic()
	r.UnitTimedOut()
	r.UnitRetry()
	r.UnitRetry()
	r.UnitRetry()
	r.FaultInjected()
	snap := r.Snapshot()
	if snap.UnitPanics != 2 || snap.UnitTimeouts != 1 || snap.UnitRetries != 3 || snap.FaultsInjected != 1 {
		t.Errorf("counters = %d/%d/%d/%d, want 2/1/3/1",
			snap.UnitPanics, snap.UnitTimeouts, snap.UnitRetries, snap.FaultsInjected)
	}
	if !strings.Contains(snap.String(), "fault tolerance: 2 panics recovered, 1 deadline timeouts, 3 retries, 1 faults injected") {
		t.Errorf("fault-tolerance line missing:\n%s", snap.String())
	}
}

func TestQuantiles(t *testing.T) {
	r := New()
	// 100 observations inside [1µs, 2µs): every quantile interpolates
	// within that one bucket.
	for i := 0; i < 100; i++ {
		r.Observe(StageAssign, 1500*time.Nanosecond)
	}
	st := r.Snapshot().Stages[StageAssign]
	if got := st.P50(); got != 1500*time.Nanosecond {
		t.Errorf("P50 = %v, want 1.5µs (rank 50 of 100 in [1µs,2µs))", got)
	}
	if got := st.P99(); got != 1990*time.Nanosecond {
		t.Errorf("P99 = %v, want 1.99µs", got)
	}
	if st.P50() > st.P95() || st.P95() > st.P99() {
		t.Errorf("quantiles not monotone: %v %v %v", st.P50(), st.P95(), st.P99())
	}
}

func TestQuantilesMixedBuckets(t *testing.T) {
	r := New()
	// 90 fast observations and 10 slow ones: the median stays in the fast
	// bucket, the tail quantiles move to the slow one ([512µs, 1024µs)).
	for i := 0; i < 90; i++ {
		r.Observe(StageSchedule, 1500*time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		r.Observe(StageSchedule, time.Millisecond)
	}
	st := r.Snapshot().Stages[StageSchedule]
	if p50 := st.P50(); p50 < time.Microsecond || p50 > 2*time.Microsecond {
		t.Errorf("P50 = %v, want within [1µs, 2µs)", p50)
	}
	if p95 := st.P95(); p95 < 512*time.Microsecond || p95 > 1024*time.Microsecond {
		t.Errorf("P95 = %v, want within [512µs, 1024µs)", p95)
	}
	if st.P99() < st.P95() {
		t.Errorf("P99 %v < P95 %v", st.P99(), st.P95())
	}
}

func TestQuantileUnboundedBucket(t *testing.T) {
	r := New()
	r.Observe(StageMeasure, time.Hour) // absorbed by the unbounded bucket
	st := r.Snapshot().Stages[StageMeasure]
	// No upper bound to interpolate toward: the estimate is the last
	// bounded boundary, not zero and not an hour.
	if got := st.P99(); got < 500*time.Millisecond || got > 2*time.Second {
		t.Errorf("P99 = %v, want the last bounded bucket boundary (~1s)", got)
	}
}

func TestQuantilesInStringAndJSON(t *testing.T) {
	r := New()
	r.Observe(StageAssign, 10*time.Microsecond)
	snap := r.Snapshot()
	s := snap.String()
	for _, col := range []string{"p50", "p95", "p99"} {
		if !strings.Contains(s, col) {
			t.Errorf("String() missing %s column:\n%s", col, s)
		}
	}
	buf, err := json.Marshal(snap.Stages[StageAssign])
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"p50Nanos", "p95Nanos", "p99Nanos"} {
		if !strings.Contains(string(buf), field) {
			t.Errorf("stage JSON missing %s: %s", field, buf)
		}
	}
}

func TestJournalCounters(t *testing.T) {
	r := New()
	if strings.Contains(r.Snapshot().String(), "checkpoint journal:") {
		t.Error("journal line shown with zero counters")
	}
	r.JournalReplay()
	r.JournalReplay()
	r.JournalCompute()
	snap := r.Snapshot()
	if snap.JournalReplays != 2 || snap.JournalComputes != 1 {
		t.Errorf("journal counters = %d/%d, want 2/1", snap.JournalReplays, snap.JournalComputes)
	}
	if !strings.Contains(snap.String(), "checkpoint journal: 2 units replayed, 1 computed") {
		t.Errorf("journal line missing:\n%s", snap.String())
	}
	var nilRec *Recorder
	nilRec.JournalReplay()
	nilRec.JournalCompute()
	if s := nilRec.Snapshot(); s.JournalReplays != 0 || s.JournalComputes != 0 {
		t.Error("nil recorder accumulated journal counters")
	}
}

// TestConcurrentSnapshotStress hammers the recorder's write paths while
// other goroutines snapshot it, for the race detector's benefit; the final
// snapshot must still account for every write.
func TestConcurrentSnapshotStress(t *testing.T) {
	const writers, perWriter, readers = 8, 2000, 4
	r := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				// Invariant under concurrency: a stage's histogram never
				// accounts for more observations than its count at some
				// later instant — both only grow.
				for _, st := range snap.Stages {
					var hist int64
					for _, b := range st.Histogram {
						hist += b.Count
					}
					if hist > 0 && st.Count == 0 {
						t.Errorf("stage %s: histogram %d with zero count", st.Stage, hist)
						return
					}
				}
				_ = snap.String()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Observe(StageAssign, time.Duration(1+i%100)*time.Microsecond)
				r.CacheHit()
				r.UnitRetry()
				r.JournalCompute()
			}
		}(w)
	}
	// Release the readers only after the writers are done.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		// Writers finish on their own; readers need the stop signal. Wait
		// for the writers by polling the counter they all bump.
		for r.Snapshot().CacheHits < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done
	snap := r.Snapshot()
	if snap.Stages[StageAssign].Count != writers*perWriter {
		t.Errorf("assign count = %d, want %d", snap.Stages[StageAssign].Count, writers*perWriter)
	}
	if snap.CacheHits != writers*perWriter || snap.UnitRetries != writers*perWriter || snap.JournalComputes != writers*perWriter {
		t.Errorf("counters = %d/%d/%d, want %d each", snap.CacheHits, snap.UnitRetries, snap.JournalComputes, writers*perWriter)
	}
}

// TestHistogramStandalone: the exported Histogram matches the engine's
// bucket/quantile machinery and is nil-safe.
func TestHistogramStandalone(t *testing.T) {
	var h Histogram
	for i := 0; i < 8; i++ {
		h.Observe(50 * time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)
	h.Observe(500 * time.Millisecond)
	if h.Count() != 10 {
		t.Fatalf("count = %d, want 10", h.Count())
	}
	st := h.Snapshot("request")
	if st.Stage != "request" || st.Count != 10 {
		t.Fatalf("snapshot %+v", st)
	}
	if want := int64(8*50*time.Millisecond + 2*500*time.Millisecond); st.TotalNanos != want {
		t.Errorf("total = %d, want %d", st.TotalNanos, want)
	}
	// 50ms sits in the [32.768ms, 65.536ms) bucket: the median must land
	// inside it.
	if st.P50() < 32*time.Millisecond || st.P50() > 66*time.Millisecond {
		t.Errorf("p50 = %v outside the 50ms bucket", st.P50())
	}
	// The p99 rank (10th of 10) is a 500ms observation.
	if st.P99() < 262*time.Millisecond {
		t.Errorf("p99 = %v, want inside the 500ms bucket", st.P99())
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Count() != 0 {
		t.Error("nil histogram counted")
	}
	if got := nilH.Snapshot("x"); got.Stage != "x" || got.Count != 0 {
		t.Errorf("nil snapshot %+v", got)
	}
}
