package deadlinedist

// Benchmarks: one per paper figure / reproduced table (regenerating a
// reduced-batch version of the experiment per iteration) plus
// component-level micro-benchmarks for the pipeline stages. The full-size
// 128-graph reproductions are run by cmd/dlexp; EXPERIMENTS.md records
// their output.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
)

// benchBase is a reduced-batch configuration so each bench iteration runs
// the whole experiment pipeline in tens of milliseconds.
func benchBase() experiment.Config {
	cfg := experiment.Default(generator.MDET)
	cfg.Graphs = 8
	cfg.Sizes = []int{2, 4, 8, 16}
	return cfg
}

func benchFigure(b *testing.B, key string) {
	b.Helper()
	base := benchBase()
	fn := experiment.Figures()[key]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := fn(context.Background(), base)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkFigureAll regenerates every figure through experiment.RunFigures
// per iteration — the `dlexp -figure all` shape: all tables run
// concurrently over one worker pool, sharing the content-addressed batch
// cache and the cross-table assignment cache. This is the regression
// guard for the cross-sweep orchestration layer; CI runs it once per push
// (see .github/workflows/ci.yml).
func BenchmarkFigureAll(b *testing.B) {
	base := benchBase()
	keys := experiment.FigureOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ki, run := range experiment.RunFigures(context.Background(), base, keys) {
			if run.Err != nil {
				b.Fatalf("figure %s: %v", keys[ki], run.Err)
			}
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (BST metrics × comm estimation).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, "2") }

// BenchmarkFigure3 regenerates Figure 3 (THRES surplus-factor sweep).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, "3") }

// BenchmarkFigure4 regenerates Figure 4 (THRES threshold sweep).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFigure5 regenerates Figure 5 (PURE vs THRES vs ADAPT).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "5") }

// BenchmarkSection8CCR regenerates the Section 8 CCR sweep.
func BenchmarkSection8CCR(b *testing.B) { benchFigure(b, "ccr") }

// BenchmarkSection8MET regenerates the Section 8 MET sweep.
func BenchmarkSection8MET(b *testing.B) { benchFigure(b, "met") }

// BenchmarkSection8Parallelism regenerates the Section 8 parallelism sweep.
func BenchmarkSection8Parallelism(b *testing.B) { benchFigure(b, "par") }

// BenchmarkSection8Topology regenerates the Section 8 topology sweep.
func BenchmarkSection8Topology(b *testing.B) { benchFigure(b, "topo") }

// BenchmarkSection8Shapes regenerates the structured-graph study.
func BenchmarkSection8Shapes(b *testing.B) { benchFigure(b, "shapes") }

// BenchmarkExtensionBaselines regenerates the one-pass-baseline comparison.
func BenchmarkExtensionBaselines(b *testing.B) { benchFigure(b, "baselines") }

// BenchmarkExtensionBus regenerates the bus-contention ablation.
func BenchmarkExtensionBus(b *testing.B) { benchFigure(b, "bus") }

// BenchmarkWorkerScaling runs one orchestrated sweep at increasing pool
// sizes, reporting the measured peak occupancy alongside the wall time.
// On a multi-core host the >1-worker variants must show peak-occupancy > 1
// (TestPoolOccupancyMultiCore proves it under a forced GOMAXPROCS); on a
// single-core host every variant degenerates to peak 1 and near-identical
// times — which is exactly what a BENCH snapshot recorded there should
// say, falsifiably, via its cpus/gomaxprocs/poolWorkers fields.
func BenchmarkWorkerScaling(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	asg := experiment.Slicing(core.ADAPT(1.25), core.CCNE())
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rec := metrics.New()
			cfg := benchBase()
			cfg.Metrics = rec
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				orc := experiment.NewOrchestrator(workers)
				cfg.Orchestrator = orc
				_, err := cfg.Run("bench", asg)
				orc.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rec.Snapshot().PoolPeak), "peak-occupancy")
		})
	}
}

// Component micro-benchmarks.

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSystem(b *testing.B, n int) *System {
	b.Helper()
	sys, err := platform.New(n)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkGenerateRandom measures random task-graph generation.
func BenchmarkGenerateRandom(b *testing.B) {
	cfg := generator.Default(generator.MDET)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := generator.Random(cfg, src.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShapeGraph builds one graph of the named shape at the given scale
// (structured shapes use scale as depth with a proportional width).
func benchShapeGraph(b *testing.B, shape string, scale int) *Graph {
	b.Helper()
	cfg := generator.Default(generator.MDET)
	var (
		g   *Graph
		err error
	)
	switch shape {
	case "random":
		cfg.MinSubtasks, cfg.MaxSubtasks = 2*scale, 4*scale
		g, err = generator.Random(cfg, rng.New(uint64(scale)))
	case "chain":
		g, err = generator.Structured(generator.StructuredConfig{
			Workload: cfg, Shape: generator.ShapeChain, Depth: 4 * scale,
		}, rng.New(uint64(scale)))
	case "fork-join":
		g, err = generator.Structured(generator.StructuredConfig{
			Workload: cfg, Shape: generator.ShapeForkJoin, Depth: scale, Width: 4,
		}, rng.New(uint64(scale)))
	case "layered":
		g, err = generator.Structured(generator.StructuredConfig{
			Workload: cfg, Shape: generator.ShapeLayered, Depth: scale, Width: 4,
		}, rng.New(uint64(scale)))
	default:
		b.Fatalf("unknown shape %q", shape)
	}
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkDistribute measures one deadline distribution per graph shape ×
// size × metric: the incremental critical-path search's hot path.
func BenchmarkDistribute(b *testing.B) {
	sys := benchSystem(b, 4)
	for _, shape := range []string{"random", "chain", "fork-join", "layered"} {
		for _, scale := range []int{4, 16} {
			g := benchShapeGraph(b, shape, scale)
			for _, m := range []core.Metric{core.NORM(), core.PURE(), core.THRES(1, 1.25), core.ADAPT(1.25)} {
				name := shape + "/" + sizeLabel(scale) + "/" + m.Name()
				b.Run(name, func(b *testing.B) {
					d := core.Distributor{Metric: m, Estimator: core.CCNE()}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := d.Distribute(g, sys); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func sizeLabel(scale int) string {
	if scale <= 4 {
		return "small"
	}
	return "large"
}

// BenchmarkSchedulerDispatch measures the dispatch loop on a wide layered
// graph (many simultaneously-ready subtasks — the case the binary-heap
// ready queue targets), with and without scratch-buffer reuse.
func BenchmarkSchedulerDispatch(b *testing.B) {
	g, err := generator.Structured(generator.StructuredConfig{
		Workload: generator.Default(generator.MDET),
		Shape:    generator.ShapeLayered, Depth: 6, Width: 32,
	}, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	sys := benchSystem(b, 8)
	res, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}.Distribute(g, sys)
	if err != nil {
		b.Fatal(err)
	}
	cfg := scheduler.Config{RespectRelease: true}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scheduler.Run(g, sys, res, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		sc := scheduler.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sc.Run(g, sys, res, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch-preemptive", func(b *testing.B) {
		cfg := cfg
		cfg.Preemptive = true
		sc := scheduler.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sc.Run(g, sys, res, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedule measures one list-scheduling run per bus mode.
func BenchmarkSchedule(b *testing.B) {
	g := benchGraph(b)
	for _, contended := range []bool{false, true} {
		name := "contention-free"
		var opts []platform.Option
		if contended {
			name = "contended"
			opts = append(opts, platform.WithBusContention())
		}
		sys, err := platform.New(8, opts...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}.Distribute(g, sys)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := scheduler.Config{RespectRelease: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scheduler.Run(g, sys, res, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the whole distribute+schedule pipeline at the
// paper's extreme system sizes.
func BenchmarkPipeline(b *testing.B) {
	g := benchGraph(b)
	for _, n := range []int{2, 16} {
		sys := benchSystem(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			d := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}
			cfg := scheduler.Config{RespectRelease: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := d.Distribute(g, sys)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := scheduler.Run(g, sys, res, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	if n == 2 {
		return "2procs"
	}
	return "16procs"
}

// BenchmarkSection8Policy regenerates the dispatch-policy sweep.
func BenchmarkSection8Policy(b *testing.B) { benchFigure(b, "policy") }

// BenchmarkSection8Preempt regenerates the run-time-model ablation.
func BenchmarkSection8Preempt(b *testing.B) { benchFigure(b, "preempt") }

// BenchmarkSection8Hetero regenerates the heterogeneous-speed sweep.
func BenchmarkSection8Hetero(b *testing.B) { benchFigure(b, "hetero") }

// BenchmarkExtensionLocality regenerates the strict-locality fraction sweep.
func BenchmarkExtensionLocality(b *testing.B) { benchFigure(b, "locality") }

// BenchmarkExtensionOrder regenerates the distribution-first vs
// assignment-first comparison.
func BenchmarkExtensionOrder(b *testing.B) { benchFigure(b, "order") }

// BenchmarkExtensionChannels regenerates the real-time-channel estimation
// study.
func BenchmarkExtensionChannels(b *testing.B) { benchFigure(b, "channels") }

// BenchmarkExtensionAblation regenerates the AST ingredient ablation.
func BenchmarkExtensionAblation(b *testing.B) { benchFigure(b, "ablate") }

// BenchmarkExtensionImprove regenerates the iterative-improvement study.
func BenchmarkExtensionImprove(b *testing.B) { benchFigure(b, "improve") }

// BenchmarkSection8Apps regenerates the benchmark-application study.
func BenchmarkSection8Apps(b *testing.B) { benchFigure(b, "apps") }

// BenchmarkAblationOLRBasis regenerates the deadline-basis ablation.
func BenchmarkAblationOLRBasis(b *testing.B) { benchFigure(b, "olr") }

// BenchmarkAblationDispatch regenerates the dispatch-model ablation.
func BenchmarkAblationDispatch(b *testing.B) { benchFigure(b, "dispatch") }

// uncachedAssigner defeats the fingerprint cache with a fingerprint that
// is the processor count, which forces a fresh Assign at every system size.
type uncachedAssigner struct{ experiment.Assigner }

func (u uncachedAssigner) Fingerprint(dst []float64, _ *Graph, sys *System, _ *Scratch) ([]float64, error) {
	return append(dst[:0], float64(sys.NumProcs())), nil
}

// BenchmarkEngineFingerprintCache runs the same sweep twice: once with the
// cache effective (a platform-independent fingerprint means one Assign per
// graph) and once defeated (one Assign per graph and size). The hit
// variant must be measurably cheaper; each run also reports its measured
// cache hit rate.
func BenchmarkEngineFingerprintCache(b *testing.B) {
	asg := experiment.Slicing(core.PURE(), core.CCNE())
	run := func(b *testing.B, a experiment.Assigner) {
		b.Helper()
		rec := metrics.New()
		cfg := benchBase()
		cfg.Metrics = rec
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Run("bench", a); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(rec.Snapshot().CacheHitRate(), "hit-rate")
	}
	b.Run("hit", func(b *testing.B) { run(b, asg) })
	b.Run("miss", func(b *testing.B) { run(b, uncachedAssigner{asg}) })
}
