package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deadlinedist/internal/apps"
	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/improve"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// tiny returns a fast configuration for unit tests: few graphs, two sizes.
func tiny() Config {
	cfg := Default(generator.MDET)
	cfg.Graphs = 6
	cfg.Sizes = []int{2, 8}
	return cfg
}

func TestRunTableShape(t *testing.T) {
	cfg := tiny()
	table, err := cfg.Run("shape test",
		Slicing(core.PURE(), core.CCNE()),
		Slicing(core.NORM(), core.CCAA()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Curves) != 2 {
		t.Fatalf("curves = %d, want 2", len(table.Curves))
	}
	if table.Curves[0].Label != "PURE/CCNE" || table.Curves[1].Label != "NORM/CCAA" {
		t.Fatalf("labels = %q, %q", table.Curves[0].Label, table.Curves[1].Label)
	}
	for _, c := range table.Curves {
		if len(c.Points) != 2 {
			t.Fatalf("points = %d, want 2", len(c.Points))
		}
		for i, p := range c.Points {
			if p.Size != cfg.Sizes[i] {
				t.Errorf("point %d size = %d, want %d", i, p.Size, cfg.Sizes[i])
			}
			if p.Stats.N() != cfg.Graphs {
				t.Errorf("point %d aggregated %d runs, want %d", i, p.Stats.N(), cfg.Graphs)
			}
		}
	}
	if table.Scenario != "MDET" {
		t.Errorf("scenario = %q, want MDET", table.Scenario)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Table {
		cfg := tiny()
		cfg.Workers = workers
		table, err := cfg.Run("determinism", Slicing(core.ADAPT(1.25), core.CCNE()))
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	t1, t4 := run(1), run(4)
	for si := range t1.Curves[0].Points {
		m1 := t1.Curves[0].Points[si].Stats.Mean()
		m4 := t4.Curves[0].Points[si].Stats.Mean()
		if m1 != m4 {
			t.Fatalf("size index %d: mean %v (1 worker) != %v (4 workers)", si, m1, m4)
		}
	}
}

func TestFingerprintCachingMatchesFreshRuns(t *testing.T) {
	// ADAPT depends on system size, so running the sweep {2,16} must give
	// the same value at 16 as running {16} alone (cache must miss).
	full := tiny()
	full.Sizes = []int{2, 16}
	alone := tiny()
	alone.Sizes = []int{16}

	a := Slicing(core.ADAPT(1.25), core.CCNE())
	tf, err := full.Run("full", a)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := alone.Run("alone", a)
	if err != nil {
		t.Fatal(err)
	}
	mf, _ := tf.Mean("ADAPT/CCNE", 16)
	ma, _ := ta.Mean("ADAPT/CCNE", 16)
	if mf != ma {
		t.Fatalf("cached sweep mean %v != standalone mean %v", mf, ma)
	}
}

func TestPlatformIndependentStrategyCached(t *testing.T) {
	// PURE/CCNE is platform-independent: values at a common size must
	// agree between sweeps regardless of cache reuse.
	full := tiny()
	full.Sizes = []int{2, 4, 8}
	alone := tiny()
	alone.Sizes = []int{8}
	a := Slicing(core.PURE(), core.CCNE())
	tf, err := full.Run("full", a)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := alone.Run("alone", a)
	if err != nil {
		t.Fatal(err)
	}
	mf, okf := tf.Mean("PURE/CCNE", 8)
	ma, oka := ta.Mean("PURE/CCNE", 8)
	if !okf || !oka || mf != ma {
		t.Fatalf("means differ: %v vs %v (ok %v/%v)", mf, ma, okf, oka)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := tiny()
	if _, err := cfg.Run("none"); !errors.Is(err, ErrNoAssigners) {
		t.Errorf("no assigners: %v, want ErrNoAssigners", err)
	}
	bad := tiny()
	bad.Graphs = 0
	if _, err := bad.Run("bad", Slicing(core.PURE(), core.CCNE())); err == nil {
		t.Error("zero graphs accepted")
	}
	bad2 := tiny()
	bad2.Sizes = nil
	if _, err := bad2.Run("bad", Slicing(core.PURE(), core.CCNE())); err == nil {
		t.Error("empty size sweep accepted")
	}
	bad3 := tiny()
	bad3.Workload.MET = -1
	if _, err := bad3.Run("bad", Slicing(core.PURE(), core.CCNE())); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestBaselineAssigner(t *testing.T) {
	cfg := tiny()
	table, err := cfg.Run("baseline", Baseline(strategy.EQF()))
	if err != nil {
		t.Fatal(err)
	}
	if table.Curves[0].Label != "EQF" {
		t.Errorf("label = %q, want EQF", table.Curves[0].Label)
	}
	if table.Curves[0].Points[0].Stats.N() != cfg.Graphs {
		t.Error("baseline curve incomplete")
	}
}

func TestMeasureOverride(t *testing.T) {
	cfg := tiny()
	cfg.Measure = Makespan
	table, err := cfg.Run("makespan", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	// Makespans are positive; lateness would be mostly negative here.
	for _, p := range table.Curves[0].Points {
		if p.Stats.Mean() <= 0 {
			t.Errorf("size %d: makespan mean %v, want > 0", p.Size, p.Stats.Mean())
		}
	}
	// More processors cannot increase the makespan much.
	m2, _ := table.Mean("PURE/CCNE", 2)
	m8, _ := table.Mean("PURE/CCNE", 8)
	if m8 > m2 {
		t.Errorf("makespan grew with processors: %v at 2, %v at 8", m2, m8)
	}
}

func TestStructuredBatch(t *testing.T) {
	cfg := tiny()
	cfg.Structured = &generator.StructuredConfig{Shape: generator.ShapeForkJoin, Depth: 4, Width: 3}
	table, err := cfg.Run("structured", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	if table.Curves[0].Points[0].Stats.N() != cfg.Graphs {
		t.Error("structured batch incomplete")
	}
}

func TestTableFormats(t *testing.T) {
	cfg := tiny()
	table, err := cfg.Run("format test", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	txt := table.String()
	for _, want := range []string{"format test", "MDET", "PURE/CCNE", "2", "8"} {
		if !strings.Contains(txt, want) {
			t.Errorf("String() missing %q:\n%s", want, txt)
		}
	}
	csv := table.CSV()
	if !strings.HasPrefix(csv, "size,PURE/CCNE mean,PURE/CCNE ci95") {
		t.Errorf("CSV header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if lines := strings.Count(csv, "\n"); lines != 3 { // header + 2 sizes
		t.Errorf("CSV has %d lines, want 3:\n%s", lines, csv)
	}
	plot := table.Plot(40, 10)
	if !strings.Contains(plot, "PURE/CCNE") {
		t.Errorf("Plot missing legend:\n%s", plot)
	}
}

func TestMeanLookup(t *testing.T) {
	cfg := tiny()
	table, err := cfg.Run("lookup", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Mean("PURE/CCNE", 2); !ok {
		t.Error("existing point not found")
	}
	if _, ok := table.Mean("PURE/CCNE", 99); ok {
		t.Error("nonexistent size found")
	}
	if _, ok := table.Mean("NOPE", 2); ok {
		t.Error("nonexistent label found")
	}
}

func TestClaimsWellFormed(t *testing.T) {
	registry := Figures()
	ids := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Source == "" || c.Check == nil {
			t.Fatalf("claim %+v incomplete", c.ID)
		}
		if ids[c.ID] {
			t.Fatalf("duplicate claim ID %s", c.ID)
		}
		ids[c.ID] = true
		for _, f := range c.Figures {
			if registry[f] == nil {
				t.Fatalf("claim %s references unknown figure %q", c.ID, f)
			}
		}
	}
}

func TestPairedDiff(t *testing.T) {
	cfg := tiny()
	table, err := cfg.Run("paired",
		Slicing(core.PURE(), core.CCNE()),
		Slicing(core.ADAPT(1.25), core.CCNE()),
	)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := table.PairedDiff("ADAPT/CCNE", "PURE/CCNE", 2)
	if !ok {
		t.Fatal("paired diff unavailable")
	}
	if d.N() != cfg.Graphs {
		t.Fatalf("paired over %d graphs, want %d", d.N(), cfg.Graphs)
	}
	// Consistency: mean of differences == difference of means.
	a, _ := table.Mean("ADAPT/CCNE", 2)
	p, _ := table.Mean("PURE/CCNE", 2)
	if diff := d.Mean() - (a - p); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("paired mean %v != mean diff %v", d.Mean(), a-p)
	}
	// Missing labels or sizes are reported.
	if _, ok := table.PairedDiff("NOPE", "PURE/CCNE", 2); ok {
		t.Error("missing label accepted")
	}
	if _, ok := table.PairedDiff("ADAPT/CCNE", "PURE/CCNE", 99); ok {
		t.Error("missing size accepted")
	}
}

func TestPairedCITighterThanMarginal(t *testing.T) {
	cfg := tiny()
	cfg.Graphs = 24
	table, err := cfg.Run("paired-ci",
		Slicing(core.PURE(), core.CCNE()),
		Slicing(core.THRES(1, 1.25), core.CCNE()),
	)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := table.PairedDiff("THRES/CCNE", "PURE/CCNE", 2)
	if !ok {
		t.Fatal("paired diff unavailable")
	}
	var marginal float64
	for _, c := range table.Curves {
		if c.Label == "PURE/CCNE" {
			marginal = c.Points[0].Stats.CI95()
		}
	}
	if d.CI95() >= marginal {
		t.Fatalf("paired CI %v not tighter than marginal %v", d.CI95(), marginal)
	}
}

func TestWindowCosterFingerprintNotCachedAcrossSizes(t *testing.T) {
	// The window-only ablation metric's ranking costs are platform-
	// independent but its window costs are not; the fingerprint must
	// include both so the sweep re-distributes per size (regression test).
	// Every slicing assigner fingerprints through the same cost vectors,
	// the platform-dependent estimator factory included.
	full := tiny()
	full.Sizes = []int{2, 16}
	alone := tiny()
	alone.Sizes = []int{16}
	m := core.ADAPTAblation(1.25, false, true)
	for name, a := range map[string]Assigner{
		"Slicing":    Slicing(m, core.CCNE()),
		"SlicingDyn": SlicingDyn(m, "dyn", func(*platform.System) (core.CommEstimator, error) { return core.CCNE(), nil }),
	} {
		t.Run(name, func(t *testing.T) {
			tf, err := full.Run("full", a)
			if err != nil {
				t.Fatal(err)
			}
			ta, err := alone.Run("alone", a)
			if err != nil {
				t.Fatal(err)
			}
			label := tf.Curves[0].Label
			mf, _ := tf.Mean(label, 16)
			ma, _ := ta.Mean(label, 16)
			if mf != ma {
				t.Fatalf("cached sweep mean %v != standalone mean %v", mf, ma)
			}
		})
	}
}

// TestFingerprintWarmZeroAlloc pins the fingerprint stage's allocation
// contract: once a worker's fingerprint buffer and core.Scratch have
// warmed up, Fingerprint writes the distributor's cost vectors in place
// and allocates nothing.
func TestFingerprintWarmZeroAlloc(t *testing.T) {
	g := testGraph(t)
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for _, tc := range []struct {
		name string
		a    Assigner
		len  int
	}{
		{"Slicing(ADAPT)", Slicing(core.ADAPT(1.25), core.CCNE()), n},
		{"Slicing(window-only)", Slicing(core.ADAPTAblation(1.25, false, true), core.CCNE()), 2 * n},
		{"Improved(PURE)", Improved(core.PURE(), core.CCNE(), improve.Config{Iterations: 8}), n + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := core.NewScratch()
			fp, ok := tc.a.Fingerprint(nil, g, sys, sc)
			if !ok || len(fp) != tc.len {
				t.Fatalf("fingerprint: ok=%v len=%d, want ok and len %d", ok, len(fp), tc.len)
			}
			allocs := testing.AllocsPerRun(10, func() {
				fp, _ = tc.a.Fingerprint(fp, g, sys, sc)
			})
			if allocs != 0 {
				t.Errorf("warm Fingerprint allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

func TestVerifyClaimsMachinery(t *testing.T) {
	// Claims need the full contiguous size sweep (saturation checks look
	// at N-1); a 3-graph batch keeps this fast. Statistical claims may
	// legitimately fail at this scale — the test checks the machinery, not
	// the verdicts.
	base := Default(generator.MDET)
	base.Graphs = 3
	results, err := VerifyClaims(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Claims()) {
		t.Fatalf("got %d results for %d claims", len(results), len(Claims()))
	}
	for _, r := range results {
		if r.Detail == "" {
			t.Errorf("claim %s returned no detail", r.Claim.ID)
		}
	}
}

// TestVerifyClaimsRestrictedSizes: a size sweep without the point a claim
// compares (C1's saturation check reads N-1) reports that claim as not
// evaluable, naming the missing curve, instead of panicking; the other
// claims still evaluate.
func TestVerifyClaimsRestrictedSizes(t *testing.T) {
	base := Default(generator.MDET)
	base.Graphs = 2
	base.Sizes = []int{2, 4}
	results, err := VerifyClaims(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Claim.ID == "C1" {
			if !r.NotEvaluable || r.Passed {
				t.Fatalf("C1 over sizes {2,4}: %+v, want not evaluable", r)
			}
			if !strings.Contains(r.Detail, `missing curve "PURE/CCNE" size 3`) {
				t.Errorf("C1 detail %q does not name the missing curve", r.Detail)
			}
			continue
		}
		if r.NotEvaluable {
			t.Errorf("claim %s not evaluable over sizes {2,4}: %s", r.Claim.ID, r.Detail)
		}
	}
}

// TestEvaluatePropagatesOtherPanics: only a missing curve is recovered; a
// claim check that panics otherwise is a bug and must not be hidden.
func TestEvaluatePropagatesOtherPanics(t *testing.T) {
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want the check's own panic", v)
		}
	}()
	evaluate(Claim{ID: "X", Check: func(map[string][]*Table) (bool, string) { panic("boom") }}, nil)
	t.Fatal("evaluate swallowed the panic")
}

func TestEndToEndLatenessMeasure(t *testing.T) {
	cfg := tiny()
	cfg.Measure = EndToEndLateness
	table, err := cfg.Run("e2e", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	// Feasible workloads: every output meets its end-to-end deadline.
	for _, p := range table.Curves[0].Points {
		if p.Stats.Max() > 0 {
			t.Errorf("size %d: end-to-end lateness %v > 0", p.Size, p.Stats.Max())
		}
	}
}

func TestCustomBatch(t *testing.T) {
	cfg := tiny()
	cfg.Custom = apps.All()[0].Build
	table, err := cfg.Run("custom", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	if table.Curves[0].Points[0].Stats.N() != cfg.Graphs {
		t.Fatal("custom batch incomplete")
	}
}

func TestCustomBatchError(t *testing.T) {
	cfg := tiny()
	cfg.Custom = func(*rng.Source) (*taskgraph.Graph, error) {
		return nil, errors.New("boom")
	}
	if _, err := cfg.Run("custom", Slicing(core.PURE(), core.CCNE())); err == nil {
		t.Fatal("custom factory error not propagated")
	}
}

func TestImprovedAssigner(t *testing.T) {
	cfg := tiny()
	icfg := improve.Config{Iterations: 2, Scheduler: cfg.Scheduler}
	table, err := cfg.Run("improved",
		Slicing(core.PURE(), core.CCNE()),
		Improved(core.PURE(), core.CCNE(), icfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if table.Curves[1].Label != "PURE+improve" {
		t.Fatalf("label = %q", table.Curves[1].Label)
	}
	// The improver keeps the best assignment, so it can never do worse.
	for _, p := range table.Curves[0].Points {
		plain, _ := table.Mean("PURE/CCNE", p.Size)
		better, _ := table.Mean("PURE+improve", p.Size)
		if better > plain+1e-9 {
			t.Fatalf("size %d: improved %v worse than plain %v", p.Size, better, plain)
		}
	}
}

// TestImprovedAssignBytesBounded pins the steady-state memory of the
// improvement assigner on a warm Scratch, in the style of core's
// TestWideFanInAllocBounded: the initial distribution runs on the worker's
// Scratch, so what is left per call is the improvement loop's own copies
// and schedules, about 800 bytes per node on this graph. Distributing on a
// fresh working set instead raises that to about 1 470 bytes per node,
// over the ceiling.
func TestImprovedAssignBytesBounded(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	a := Improved(core.PURE(), core.CCNE(), improve.Config{Iterations: 8})
	sc := core.NewScratch()
	assign := func() {
		if _, err := a.Assign(context.Background(), g, sys, nil, sc); err != nil {
			t.Fatal(err)
		}
	}
	assign()
	assign()
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		assign()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(1000 * g.NumNodes()); perOp > limit {
		t.Errorf("Improved Assign on a warm Scratch allocates %d bytes/op on a %d-node graph; want at most %d", perOp, g.NumNodes(), limit)
	}
}

func TestSlicingDynAssigner(t *testing.T) {
	cfg := tiny()
	mkEst := func(sys *platform.System) (core.CommEstimator, error) {
		net, err := channel.Ring(sys.NumProcs(), 1)
		if err != nil {
			return nil, err
		}
		return core.CCHOP(net), nil
	}
	table, err := cfg.Run("dyn", SlicingDyn(core.PURE(), "PURE/CCHOP", mkEst))
	if err != nil {
		t.Fatal(err)
	}
	if table.Curves[0].Label != "PURE/CCHOP" {
		t.Fatalf("label = %q", table.Curves[0].Label)
	}
	// A failing factory surfaces as a run error.
	bad := SlicingDyn(core.PURE(), "bad", func(*platform.System) (core.CommEstimator, error) {
		return nil, errors.New("no network")
	})
	if _, err := cfg.Run("dyn-bad", bad); err == nil {
		t.Fatal("factory error not propagated")
	}
}

func TestNetworkedRun(t *testing.T) {
	cfg := tiny()
	cfg.Network = func(n int) (*channel.Network, error) { return channel.Ring(n, 1) }
	table, err := cfg.Run("networked", Slicing(core.ADAPT(1.25), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	if table.Curves[0].Points[0].Stats.N() != cfg.Graphs {
		t.Fatal("networked run incomplete")
	}
	// A failing network factory surfaces as a run error.
	cfg.Network = func(int) (*channel.Network, error) { return nil, errors.New("down") }
	if _, err := cfg.Run("networked-bad", Slicing(core.PURE(), core.CCNE())); err == nil {
		t.Fatal("network factory error not propagated")
	}
}

func TestEqualFPSymmetric(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		want bool
	}{
		{"nil-nil", nil, nil, true},
		{"nil-empty", nil, []float64{}, true},
		{"empty-nil", []float64{}, nil, true},
		{"empty-empty", []float64{}, []float64{}, true},
		{"equal", []float64{1, 2}, []float64{1, 2}, true},
		{"diff-value", []float64{1, 2}, []float64{1, 3}, false},
		{"diff-len", []float64{1}, []float64{1, 2}, false},
		{"nil-nonempty", nil, []float64{1}, false},
		{"nonempty-nil", []float64{1}, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := equalFP(c.a, c.b); got != c.want {
				t.Errorf("equalFP(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			}
			if fwd, rev := equalFP(c.a, c.b), equalFP(c.b, c.a); fwd != rev {
				t.Errorf("equalFP asymmetric on (%v, %v): %v vs %v", c.a, c.b, fwd, rev)
			}
		})
	}
}

// flakyEstFactory models a transiently failing platform-dependent
// estimator (e.g. network construction): the first call for each platform
// size errors, retries succeed. Not safe for concurrent use — run with
// Workers = 1.
func flakyEstFactory() func(sys *platform.System) (core.CommEstimator, error) {
	failed := map[int]bool{}
	return func(sys *platform.System) (core.CommEstimator, error) {
		if n := sys.NumProcs(); !failed[n] {
			failed[n] = true
			return nil, errors.New("transient estimator failure")
		}
		return core.CCNE(), nil
	}
}

// TestUnknownFingerprintNotReusedAcrossSizes is the regression test for the
// nil-fingerprint cache collision: dynSlicingAssigner.Fingerprint used to
// return a plain nil on estimator error, which compared equal to a nil
// fingerprint cached at an earlier size, so the engine silently reused the
// stale distribution. With the ok=false convention the engine must run a
// fresh Assign at every size whose fingerprint is unknown, making the sweep
// agree with a standalone run of the larger size.
func TestUnknownFingerprintNotReusedAcrossSizes(t *testing.T) {
	run := func(sizes []int) *Table {
		cfg := tiny()
		cfg.Sizes = sizes
		cfg.Workers = 1 // the flaky factory below is stateful
		table, err := cfg.Run("flaky", SlicingDyn(core.ADAPT(1.25), "ADAPT/flaky", flakyEstFactory()))
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	sweep := run([]int{2, 16})
	alone := run([]int{16})
	ms, _ := sweep.Mean("ADAPT/flaky", 16)
	ma, _ := alone.Mean("ADAPT/flaky", 16)
	if ms != ma {
		t.Fatalf("sweep reused a stale distribution at size 16: mean %v, standalone %v", ms, ma)
	}
}

// TestPersistentEstimatorFailureSurfaces: when the factory fails for a size
// on every call, the error must abort the run instead of being swallowed by
// a cache hit.
func TestPersistentEstimatorFailureSurfaces(t *testing.T) {
	cfg := tiny()
	cfg.Sizes = []int{2, 16}
	cfg.Workers = 1
	factory := func(sys *platform.System) (core.CommEstimator, error) {
		if sys.NumProcs() == 16 {
			return nil, errors.New("no estimator for 16 processors")
		}
		return core.CCNE(), nil
	}
	_, err := cfg.Run("persistent", SlicingDyn(core.ADAPT(1.25), "ADAPT/dyn", factory))
	if err == nil || !strings.Contains(err.Error(), "no estimator for 16 processors") {
		t.Fatalf("estimator failure not surfaced: %v", err)
	}
}

// countingAssigner delegates to a slicing strategy but reports a fixed
// fingerprint state and counts Assign calls.
type countingAssigner struct {
	inner   Assigner
	known   bool
	assigns *atomic.Int64
}

func (c countingAssigner) Label() string { return c.inner.Label() }

func (c countingAssigner) Fingerprint([]float64, *taskgraph.Graph, *platform.System, *core.Scratch) ([]float64, bool) {
	return nil, c.known
}

func (c countingAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	c.assigns.Add(1)
	return c.inner.Assign(ctx, g, sys, recycle, sc)
}

func TestFingerprintCacheTraffic(t *testing.T) {
	// A known platform-independent fingerprint assigns once per graph; an
	// unknown fingerprint assigns once per graph and size. The recorder
	// sees exactly the complementary hit/miss counts.
	for _, known := range []bool{true, false} {
		cfg := tiny() // 6 graphs, 2 sizes
		rec := metrics.New()
		cfg.Metrics = rec
		var assigns atomic.Int64
		asg := countingAssigner{inner: Slicing(core.PURE(), core.CCNE()), known: known, assigns: &assigns}
		if _, err := cfg.Run("traffic", asg); err != nil {
			t.Fatal(err)
		}
		pipelines := int64(cfg.Graphs * len(cfg.Sizes))
		wantAssigns := int64(cfg.Graphs)
		if !known {
			wantAssigns = pipelines
		}
		if got := assigns.Load(); got != wantAssigns {
			t.Errorf("known=%v: %d Assign calls, want %d", known, got, wantAssigns)
		}
		snap := rec.Snapshot()
		if snap.CacheHits+snap.CacheMisses != pipelines {
			t.Errorf("known=%v: cache traffic %d, want %d", known, snap.CacheHits+snap.CacheMisses, pipelines)
		}
		if snap.CacheMisses != wantAssigns {
			t.Errorf("known=%v: %d misses, want %d", known, snap.CacheMisses, wantAssigns)
		}
	}
}

// failingAssigner errors on every Assign after a short delay, counting
// attempts; the delay gives the pool time to observe cancellation.
type failingAssigner struct {
	attempts *atomic.Int64
}

func (f failingAssigner) Label() string { return "failing" }

func (f failingAssigner) Fingerprint([]float64, *taskgraph.Graph, *platform.System, *core.Scratch) ([]float64, bool) {
	return nil, true
}

func (f failingAssigner) Assign(context.Context, *taskgraph.Graph, *platform.System,
	*core.Result, *core.Scratch) (*core.Result, error) {
	n := f.attempts.Add(1)
	time.Sleep(time.Millisecond)
	return nil, fmt.Errorf("induced failure %d", n)
}

func TestRunFailsFastAndReportsAllErrors(t *testing.T) {
	cfg := tiny()
	cfg.Graphs = 64
	cfg.Workers = 4
	cfg.MaxErrors = 3
	var attempts atomic.Int64
	_, err := cfg.Run("fail-fast", failingAssigner{attempts: &attempts})
	if err == nil {
		t.Fatal("failing batch succeeded")
	}
	if got := attempts.Load(); got >= int64(cfg.Graphs) {
		t.Errorf("no fail-fast: all %d graph pipelines ran", got)
	}
	reported := regexp.MustCompile(`graph \d+:`).FindAllString(err.Error(), -1)
	if len(reported) == 0 {
		t.Errorf("no per-graph errors reported: %v", err)
	}
	if len(reported) > cfg.MaxErrors {
		t.Errorf("%d distinct graph errors reported, cap is %d:\n%v", len(reported), cfg.MaxErrors, err)
	}
	if seen := map[string]bool{}; true {
		for _, r := range reported {
			if seen[r] {
				t.Errorf("duplicate error for %q", r)
			}
			seen[r] = true
		}
	}
}

func TestRunRecordsStageTimings(t *testing.T) {
	cfg := tiny()
	rec := metrics.New()
	cfg.Metrics = rec
	if _, err := cfg.Run("timed", Slicing(core.ADAPT(1.25), core.CCNE())); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	pipelines := int64(cfg.Graphs * len(cfg.Sizes))
	want := map[metrics.Stage]int64{
		metrics.StageGenerate:    1,
		metrics.StageFingerprint: pipelines,
		metrics.StageSchedule:    pipelines,
		metrics.StageMeasure:     pipelines,
	}
	for stage, count := range want {
		st := snap.Stages[stage]
		if st.Count != count {
			t.Errorf("stage %s: %d observations, want %d", stage, st.Count, count)
		}
		if st.Count > 0 && st.TotalNanos <= 0 {
			t.Errorf("stage %s: no wall time recorded", stage)
		}
	}
	// ADAPT depends on the platform: every pipeline is a miss.
	if snap.CacheMisses != pipelines || snap.CacheHits != 0 {
		t.Errorf("cache = %d/%d, want %d misses", snap.CacheHits, snap.CacheMisses, pipelines)
	}
	if snap.Stages[metrics.StageAssign].Count != pipelines {
		t.Errorf("assign observations = %d, want %d", snap.Stages[metrics.StageAssign].Count, pipelines)
	}
}

// uncachedWrapper wraps an assigner by embedding and overrides only
// Fingerprint, the shape of a wrapper that defeats the fingerprint cache.
type uncachedWrapper struct{ Assigner }

func (uncachedWrapper) Fingerprint([]float64, *taskgraph.Graph, *platform.System, *core.Scratch) ([]float64, bool) {
	return nil, false
}

// TestEmbeddingWrapperGetsContext: a wrapper that embeds an assigner has
// the inner Assign promoted whole, so the context, the recycled Result and
// the scratch all reach the distribution core. An already-cancelled
// context aborts with context.Canceled instead of computing; a live one
// yields the plain Distribute result.
func TestEmbeddingWrapperGetsContext(t *testing.T) {
	g := testGraph(t)
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, asg := range []Assigner{
		uncachedWrapper{Slicing(core.PURE(), core.CCNE())},
		labelled{Slicing(core.PURE(), core.CCNE()), "relabelled"},
		uncachedWrapper{labelled{Slicing(core.PURE(), core.CCNE()), "relabelled"}},
	} {
		if _, err := asg.Assign(cancelled, g, sys, nil, core.NewScratch()); !errors.Is(err, context.Canceled) {
			t.Errorf("%T: cancelled ctx gave err %v, want context.Canceled", asg, err)
		}
		recycle := &core.Result{}
		got, err := asg.Assign(context.Background(), g, sys, recycle, core.NewScratch())
		if err != nil {
			t.Fatalf("%T: %v", asg, err)
		}
		if got != recycle {
			t.Errorf("%T: recycled Result was not used", asg)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: live ctx result differs from Distribute", asg)
		}
	}
}
