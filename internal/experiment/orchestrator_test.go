package experiment

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/sfcache"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// orcCfg is a reduced sweep exercising every cross-table cache path: a
// slicing assigner (platform-dependent fingerprint), a baseline
// (platform-independent) and a transformer (excluded from the cross cache).
func orcCfg() Config {
	cfg := Default(generator.MDET)
	cfg.Graphs = 6
	cfg.Sizes = []int{2, 5, 8}
	return cfg
}

func orcAssigners() []Assigner {
	return []Assigner{
		Slicing(core.ADAPT(1.25), core.CCNE()),
		Baseline(strategy.UD()),
		AssignFirst(core.PURE()),
	}
}

// TestOrchestratedRunMatchesUnorchestrated is the determinism property of
// the shared pool: the same sweep through orchestrators of any worker count
// produces tables bit-identical to the unorchestrated reference.
func TestOrchestratedRunMatchesUnorchestrated(t *testing.T) {
	cfg := orcCfg()
	asg := orcAssigners()
	want, err := cfg.Run("ref", asg...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		orc := NewOrchestrator(workers)
		ocfg := cfg
		ocfg.Orchestrator = orc
		got, err := ocfg.Run("ref", asg...)
		orc.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: orchestrated table differs from sequential reference", workers)
		}
	}
}

// TestOrchestratorConcurrentRuns drives several sweeps through one
// orchestrator at once — the -figure all shape, where tables interleave on
// the shared pool and hit each other's cached batch and assignments — and
// checks every table against its sequential reference.
func TestOrchestratorConcurrentRuns(t *testing.T) {
	cfg := orcCfg()
	sets := [][]Assigner{
		{Slicing(core.ADAPT(1.25), core.CCNE()), Baseline(strategy.UD())},
		{Slicing(core.ADAPT(1.25), core.CCNE()), Slicing(core.PURE(), core.CCNE())},
		{Baseline(strategy.UD()), Baseline(strategy.EQF())},
	}
	want := make([]*Table, len(sets))
	for i, s := range sets {
		var err error
		if want[i], err = cfg.Run("ref", s...); err != nil {
			t.Fatal(err)
		}
	}

	orc := NewOrchestrator(2)
	defer orc.Close()
	got := make([]*Table, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, s := range sets {
		wg.Add(1)
		go func(i int, s []Assigner) {
			defer wg.Done()
			ocfg := cfg
			ocfg.Orchestrator = orc
			got[i], errs[i] = ocfg.Run("ref", s...)
		}(i, s)
	}
	wg.Wait()
	for i := range sets {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d: concurrent orchestrated table differs from reference", i)
		}
	}
}

// TestOrchestratorCacheAccounting pins the exact cache traffic of two
// identical runs sharing one orchestrator: the second run generates nothing
// and assigns nothing — one batch hit, and one cross-table hit per graph
// (the per-run cache covers the remaining sizes in both runs, since UD is
// platform-independent).
func TestOrchestratorCacheAccounting(t *testing.T) {
	cfg := orcCfg()
	orc := NewOrchestrator(2)
	defer orc.Close()
	cfg.Orchestrator = orc

	runOnce := func() metrics.Snapshot {
		rec := metrics.New()
		c := cfg
		c.Metrics = rec
		if _, err := c.Run("acct", Baseline(strategy.UD())); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot()
	}

	g := int64(cfg.Graphs)
	s1 := runOnce()
	if s1.BatchMisses != 1 || s1.BatchHits != 0 {
		t.Errorf("run 1 batch traffic %d hits / %d misses, want 0/1", s1.BatchHits, s1.BatchMisses)
	}
	if s1.CrossMisses != g || s1.CrossHits != 0 {
		t.Errorf("run 1 cross traffic %d hits / %d misses, want 0/%d", s1.CrossHits, s1.CrossMisses, g)
	}
	s2 := runOnce()
	if s2.BatchHits != 1 || s2.BatchMisses != 0 {
		t.Errorf("run 2 batch traffic %d hits / %d misses, want 1/0", s2.BatchHits, s2.BatchMisses)
	}
	if s2.CrossHits != g || s2.CrossMisses != 0 {
		t.Errorf("run 2 cross traffic %d hits / %d misses, want %d/0", s2.CrossHits, s2.CrossMisses, g)
	}
	if s2.PoolJobs != g {
		t.Errorf("run 2 submitted %d pool jobs, want %d", s2.PoolJobs, g)
	}
}

// TestCrossCacheSkipsTransformedGraphs checks the exclusion rule: a
// GraphTransformer assigner distributes per-size transformed graphs, which
// are not valid cross-table keys, so it must never touch the cross cache.
func TestCrossCacheSkipsTransformedGraphs(t *testing.T) {
	cfg := orcCfg()
	orc := NewOrchestrator(2)
	defer orc.Close()
	rec := metrics.New()
	cfg.Orchestrator = orc
	cfg.Metrics = rec
	if _, err := cfg.Run("transform", AssignFirst(core.PURE())); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.CrossHits != 0 || snap.CrossMisses != 0 {
		t.Errorf("transformer saw cross-cache traffic %d hits / %d misses, want none",
			snap.CrossHits, snap.CrossMisses)
	}
	if snap.BatchMisses != 1 {
		t.Errorf("batch misses = %d, want 1", snap.BatchMisses)
	}
}

// nanFPAssigner returns a NaN-bearing fingerprint that reproduces at every
// size, counting Assign calls.
type nanFPAssigner struct {
	inner Assigner
	calls *int64
	mu    *sync.Mutex
}

func (a nanFPAssigner) Label() string { return "nan-fp" }

func (a nanFPAssigner) Fingerprint([]float64, *taskgraph.Graph, *platform.System, *core.Scratch) ([]float64, bool) {
	return []float64{math.NaN(), 1}, true
}

func (a nanFPAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	a.mu.Lock()
	*a.calls++
	a.mu.Unlock()
	return a.inner.Assign(ctx, g, sys, recycle, sc)
}

// TestNaNFingerprintCachedAcrossSizes is the regression test for the
// NaN-fingerprint cache miss: equalFP compared elements with !=, so a NaN
// anywhere in a reproducible fingerprint never matched its own cached copy
// and the engine re-assigned at every size. NaNs must compare equal to each
// other, giving one Assign per graph.
func TestNaNFingerprintCachedAcrossSizes(t *testing.T) {
	cfg := orcCfg()
	rec := metrics.New()
	cfg.Metrics = rec
	var (
		calls int64
		mu    sync.Mutex
	)
	asg := nanFPAssigner{inner: Baseline(strategy.UD()), calls: &calls, mu: &mu}
	if _, err := cfg.Run("nan", asg); err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.Graphs); calls != want {
		t.Errorf("Assign ran %d times, want %d (once per graph)", calls, want)
	}
	snap := rec.Snapshot()
	if want := int64(cfg.Graphs * (len(cfg.Sizes) - 1)); snap.CacheHits != want {
		t.Errorf("per-run cache hits = %d, want %d", snap.CacheHits, want)
	}
}

// TestAssignKeyCollision forces two fingerprints onto one cross-table
// key: an entry computed for one fingerprint is planted under the other's
// key. The lookup for the other must be computed, uncached and correct,
// and must leave the planted entry in place; the planted fingerprint
// still gets its own correct, shared result under its own key.
func TestAssignKeyCollision(t *testing.T) {
	orc := NewOrchestrator(1)
	defer orc.Close()
	g := testGraph(t)
	asg := Slicing(core.PURE(), core.CCEXP())
	w := newPoolWorker()
	sysA, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := platform.New(8)
	if err != nil {
		t.Fatal(err)
	}
	fpA, _ := asg.Fingerprint(nil, g, sysA, nil)
	fpB, _ := asg.Fingerprint(nil, g, sysB, nil)
	d := core.Distributor{Metric: core.PURE(), Estimator: core.CCEXP()}
	wantA, err := d.Distribute(g, sysA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := d.Distribute(g, sysB)
	if err != nil {
		t.Fatal(err)
	}
	if sameFP(fpA, fpB) || reflect.DeepEqual(wantA.Relative, wantB.Relative) {
		t.Fatal("precondition: the two platforms must give different fingerprints and windows")
	}

	keyB := assignKey{g: g, label: asg.Label(), fp: fpHash(fpB)}
	planted := assignEntry{res: wantA, fp: fpA}
	if _, _, err := orc.assigns.Do(context.Background(), keyB, func(sfcache.Outcome) (assignEntry, error) {
		return planted, nil
	}); err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	check := func(sys *platform.System, fp []float64, want *core.Result, wantShared bool) {
		t.Helper()
		res, shared, err := orc.assignment(context.Background(), g, sys, asg, asg.Label(), fp, rec, w)
		if err != nil {
			t.Fatal(err)
		}
		if shared != wantShared {
			t.Errorf("%d procs: shared = %v, want %v", sys.NumProcs(), shared, wantShared)
		}
		if !reflect.DeepEqual(res.Relative, want.Relative) || !reflect.DeepEqual(res.Release, want.Release) {
			t.Errorf("%d procs: result differs from a plain distribution", sys.NumProcs())
		}
	}
	check(sysB, fpB, wantB, false)
	if e, ok := orc.assigns.Peek(keyB); !ok || e.res != wantA || !sameFP(e.fp, fpA) {
		t.Error("the colliding lookup replaced the planted entry")
	}
	check(sysA, fpA, wantA, true)
	if snap := rec.Snapshot(); snap.CrossHits != 0 || snap.CrossMisses != 2 {
		t.Errorf("cross hits/misses = %d/%d, want 0/2", snap.CrossHits, snap.CrossMisses)
	}
}

// TestBatchParallelDeterminism checks that the parallel batch fill is
// order-independent: worker counts must not change the generated graphs,
// for both the random and the structured generator.
func TestBatchParallelDeterminism(t *testing.T) {
	base := orcCfg()
	structured := base
	structured.Structured = &generator.StructuredConfig{Shape: generator.ShapeLayered, Depth: 3, Width: 4}
	for name, cfg := range map[string]Config{"random": base, "structured": structured} {
		t.Run(name, func(t *testing.T) {
			serial := cfg
			serial.Workers = 1
			want, err := serial.batch()
			if err != nil {
				t.Fatal(err)
			}
			parallel := cfg
			parallel.Workers = 4
			got, err := parallel.batch()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("parallel batch differs from serial batch")
			}
		})
	}
}

// assignEntryCount returns the live assignment-cache entry count, settled
// or in flight.
func (o *Orchestrator) assignEntryCount() int { return o.assigns.Len() }
