package experiment

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
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

func (a nanFPAssigner) Fingerprint([]float64, *taskgraph.Graph, *platform.System, *core.Scratch) ([]float64, error) {
	return []float64{math.NaN(), 1}, nil
}

func (a nanFPAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	a.mu.Lock()
	*a.calls++
	a.mu.Unlock()
	return a.inner.Assign(ctx, g, sys, recycle, sc)
}

// TestNaNFingerprintCachedAcrossSizes is the regression test for the
// NaN-fingerprint cache miss: fingerprints were once compared with !=, so
// a NaN anywhere in a reproducible fingerprint never matched its own cached
// copy and the engine re-assigned at every size. Fingerprints compare by
// bits, so a NaN matches its own bits, giving one Assign per graph.
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
	if sameBits(fpA, fpB) || reflect.DeepEqual(wantA.Relative, wantB.Relative) {
		t.Fatal("precondition: the two platforms must give different fingerprints and windows")
	}

	keyB := assignKey{g: g, label: asg.Label(), fp: bitsHash(fpB)}
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
	if e, ok := orc.assigns.Peek(keyB); !ok || e.res != wantA || !sameBits(e.fp, fpA) {
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

// TestOutcomeKeyCollision forces two distributions onto one schedule-outcome
// key: an outcome scheduled for one is planted under the other's key. The
// other must be scheduled, uncached and correct, and must leave the
// planted entry in place; the planted distribution still gets its own
// correct value, published under its own key and then hit.
func TestOutcomeKeyCollision(t *testing.T) {
	orc := NewOrchestrator(1)
	defer orc.Close()
	g := testGraph(t)
	d := core.Distributor{Metric: core.PURE(), Estimator: core.CCEXP()}
	results := make([]*core.Result, 2)
	for i, n := range []int{2, 8} {
		sys, err := platform.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = d.Distribute(g, sys); err != nil {
			t.Fatal(err)
		}
	}
	resA, resB := results[0], results[1]
	if sameResult(resA, resB) {
		t.Fatal("precondition: the two distributions must differ")
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduler.Config{RespectRelease: true}
	want := func(res *core.Result) (float64, int) {
		s, err := scheduler.Run(g, sys, res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.MaxLateness(g, res), s.ProcsUsed()
	}
	valA, usedA := want(resA)
	valB, usedB := want(resB)
	if valA == valB {
		t.Fatal("precondition: the two distributions must measure differently")
	}
	class, _ := sys.Class()
	model := orc.modelID(outcomeModel{class: class, procs: 4, cfg: cfg})
	keyA := outcomeKey{g: g, res: bitsHash(resA.Release, resA.Absolute), model: model}
	keyB := outcomeKey{g: g, res: bitsHash(resB.Release, resB.Absolute), model: model}
	planted := outcome{res: resA, val: valA, used: usedA}
	if _, _, err := orc.outcomes.Do(context.Background(), keyB, func(sfcache.Outcome) (outcome, error) {
		return planted, nil
	}); err != nil {
		t.Fatal(err)
	}
	check := func(key outcomeKey, res *core.Result, wantVal float64, wantUsed int, wantHit, wantRun bool) {
		t.Helper()
		ran := false
		val, used, hit, err := orc.outcome(context.Background(), key, res, func() (float64, int, error) {
			ran = true
			v, u := want(res)
			return v, u, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if val != wantVal || used != wantUsed || hit != wantHit || ran != wantRun {
			t.Errorf("outcome = (%v, %d, hit %v, ran %v), want (%v, %d, hit %v, ran %v)",
				val, used, hit, ran, wantVal, wantUsed, wantHit, wantRun)
		}
	}
	check(keyB, resB, valB, usedB, false, true)
	if e, ok := orc.outcomes.Peek(keyB); !ok || e != planted {
		t.Error("the colliding lookup replaced the planted entry")
	}
	check(keyA, resA, valA, usedA, false, true)
	// A distinct Result with A's content hits A's entry.
	clone := *resA
	clone.Release = slices.Clone(resA.Release)
	clone.Absolute = slices.Clone(resA.Absolute)
	check(keyA, &clone, valA, usedA, true, false)
}

// TestOutcomeCacheSharesIdenticalRows runs one table and then a table of
// identical rows under another label on one orchestrator: the second
// table's distributions are its own Results with the same content, so
// every one of its cells is answered by the first table's outcomes —
// through the cross-table cache or past idle processors — and none is
// scheduled again. A third such table samples every cell for validation,
// so it schedules every cell it does not carry past idle processors and
// never takes a cross-table value. All three tables are identical.
func TestOutcomeCacheSharesIdenticalRows(t *testing.T) {
	orc := NewOrchestrator(2)
	defer orc.Close()
	cfg := Default(generator.MDET)
	cfg.Graphs = 4
	cfg.Sizes = []int{2, 3, 4, 6, 8, 12, 16}
	cfg.Orchestrator = orc
	cells := int64(cfg.Graphs * len(cfg.Sizes))
	run := func(label string, validate int) (*Table, metrics.Snapshot) {
		t.Helper()
		c := cfg
		c.Metrics = metrics.New()
		c.ValidateSample = validate
		tab, err := c.Run("rows", labelled{Slicing(core.PURE(), core.CCNE()), label})
		if err != nil {
			t.Fatal(err)
		}
		return tab, c.Metrics.Snapshot()
	}
	first, s1 := run("PURE", 0)
	second, s2 := run("alias", 0)
	third, s3 := run("validated", 1)
	scheduled := func(s metrics.Snapshot) int64 { return s.Stages[metrics.StageSchedule].Count }
	if scheduled(s1)+s1.ReusedIdle != cells || s1.ReusedCross != 0 {
		t.Errorf("first table: %d scheduled + %d idle, %d cross; want %d cells, 0 cross",
			scheduled(s1), s1.ReusedIdle, s1.ReusedCross, cells)
	}
	if s1.ReusedIdle == 0 {
		t.Error("first table: no cell reused a schedule past idle processors")
	}
	if scheduled(s2) != 0 || s2.ReusedCross == 0 || s2.ReusedIdle+s2.ReusedCross != cells {
		t.Errorf("second table: %d scheduled, %d idle, %d cross; want 0 scheduled, every cell reused",
			scheduled(s2), s2.ReusedIdle, s2.ReusedCross)
	}
	for i, s := range []metrics.Snapshot{s1, s2, s3} {
		if got := s.Stages[metrics.StageMeasure].Count; got != cells {
			t.Errorf("table %d: %d measure observations, want one per cell (%d)", i+1, got, cells)
		}
	}
	if s3.ReusedCross != 0 || scheduled(s3)+s3.ReusedIdle != cells {
		t.Errorf("validated table: %d scheduled, %d idle, %d cross; want no cross-table value",
			scheduled(s3), s3.ReusedIdle, s3.ReusedCross)
	}
	for i, tab := range []*Table{second, third} {
		for si, p := range tab.Curves[0].Points {
			for gi, v := range p.Raw {
				if w := first.Curves[0].Points[si].Raw[gi]; math.Float64bits(v) != math.Float64bits(w) {
					t.Errorf("table %d, %d procs, graph %d: %v, first table %v", i+2, p.Size, gi, v, w)
				}
			}
		}
	}
}
