package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deadlinedist/internal/apps"
	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/improve"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/strategy"
)

// This file declares every figure of the paper — and the Section 8
// complementary results and the repository's extensions — as data: an
// experiment is a registry key and a list of panels, one panel per table
// of the paper's plot layout (DESIGN.md §4 indexes the keys). runPanels is
// the one runner of every panel; Figures, FigureOrder and RunFigures are
// all derived from the one ordered registry.
//
// Partial results: when a run is interrupted or over budget, the tables
// completed so far — plus the partial table of the interrupted panel — are
// returned alongside the error, so dlexp can render what exists and the
// journal-backed resume can finish the rest.

// options shared by the AST experiments (Section 7): Figure 5 uses
// Δ=1 and c_thres = 1.25 × MET.
const (
	defaultDelta       = 1.0
	defaultThresFactor = 1.25
)

// panel is one table of an experiment: the base configuration changed by
// edit, run over curves under title. A non-empty scenario replaces the
// scenario name the run derives from the workload's deviation.
type panel struct {
	title    string
	scenario string
	edit     func(cfg *Config)
	curves   []Assigner
}

// figure is one registry entry. panels builds the experiment's panels
// afresh on every call, so concurrent runs never share an assigner.
type figure struct {
	key    string
	panels func(base Config) []panel
}

// FigureFunc regenerates one paper figure (or Section 8 / extension
// result) from a base configuration. The tables completed before an
// interruption are returned alongside the error (see the partial-result
// contract above).
type FigureFunc func(ctx context.Context, base Config) ([]*Table, error)

// run is the figure's FigureFunc.
func (f figure) run(ctx context.Context, base Config) ([]*Table, error) {
	return runPanels(ctx, base, f.panels(base))
}

// runPanels runs the panels in order, one table each, and stops at the
// first error with the tables finished so far (the failed panel's partial
// table included).
func runPanels(ctx context.Context, base Config, panels []panel) ([]*Table, error) {
	var tables []*Table
	for _, p := range panels {
		cfg := base
		if p.edit != nil {
			p.edit(&cfg)
		}
		t, err := cfg.RunContext(ctx, p.title, p.curves...)
		if t != nil {
			if p.scenario != "" {
				t.Scenario = p.scenario
			}
			tables = append(tables, t)
		}
		if err != nil {
			return tables, err
		}
	}
	return tables, nil
}

// perScenario is the layout of the paper's Figures 2–5: one panel per
// execution-time scenario (LDET, MDET, HDET), each over fresh curves.
func perScenario(title string, curves func() []Assigner) []panel {
	var ps []panel
	for _, s := range generator.Scenarios() {
		ps = append(ps, panel{
			title:  title,
			edit:   func(cfg *Config) { cfg.Workload.ExecDeviation = s.Deviation },
			curves: curves(),
		})
	}
	return ps
}

// mdet is a panel of a Section 8 or extension experiment: the MDET
// scenario, then edit (nil for none).
func mdet(title, scenario string, edit func(cfg *Config), curves ...Assigner) panel {
	return panel{title: title, scenario: scenario, curves: curves, edit: func(cfg *Config) {
		cfg.Workload.ExecDeviation = generator.MDET.Deviation
		if edit != nil {
			edit(cfg)
		}
	}}
}

// pureAdapt is the curve pair most Section 8 sweeps compare: PURE against
// ADAPT (c_thres = 1.25 × MET), both with CCNE estimates.
func pureAdapt() []Assigner {
	return []Assigner{
		Slicing(core.PURE(), core.CCNE()),
		Slicing(core.ADAPT(defaultThresFactor), core.CCNE()),
	}
}

// pureThresAdapt is Figure 5's curve set: PURE vs THRES(Δ=1) vs ADAPT,
// with c_thres = 1.25 × MET and CCNE (AST's design choice).
func pureThresAdapt() []Assigner {
	return []Assigner{
		Slicing(core.PURE(), core.CCNE()),
		Slicing(core.THRES(defaultDelta, defaultThresFactor), core.CCNE()),
		Slicing(core.ADAPT(defaultThresFactor), core.CCNE()),
	}
}

// registry lists every experiment in presentation order.
var registry = []figure{
	// Figure 2: maximum task lateness of the BST metrics (PURE, NORM)
	// under both communication-cost estimation strategies (CCNE, CCAA).
	{"2", func(Config) []panel {
		return perScenario("Figure 2: BST metrics (PURE, NORM) x (CCNE, CCAA)", func() []Assigner {
			return []Assigner{
				Slicing(core.PURE(), core.CCNE()),
				Slicing(core.PURE(), core.CCAA()),
				Slicing(core.NORM(), core.CCNE()),
				Slicing(core.NORM(), core.CCAA()),
			}
		})
	}},
	// Figure 3: the THRES metric for surplus factors Δ ∈ {1, 2, 4}
	// (CCNE, c_thres = MET).
	{"3", func(Config) []panel {
		return perScenario("Figure 3: THRES surplus factor sweep", func() []Assigner {
			return []Assigner{
				labelled{Slicing(core.THRES(1, 1.0), core.CCNE()), "THRES d=1"},
				labelled{Slicing(core.THRES(2, 1.0), core.CCNE()), "THRES d=2"},
				labelled{Slicing(core.THRES(4, 1.0), core.CCNE()), "THRES d=4"},
			}
		})
	}},
	// Figure 4: the THRES metric for execution-time thresholds
	// c_thres ∈ {0.75, 1.0, 1.25} × MET (Δ=1, CCNE).
	{"4", func(Config) []panel {
		return perScenario("Figure 4: THRES execution-time threshold sweep", func() []Assigner {
			return []Assigner{
				labelled{Slicing(core.THRES(defaultDelta, 0.75), core.CCNE()), "cthres=0.75 MET"},
				labelled{Slicing(core.THRES(defaultDelta, 1.00), core.CCNE()), "cthres=1.00 MET"},
				labelled{Slicing(core.THRES(defaultDelta, 1.25), core.CCNE()), "cthres=1.25 MET"},
			}
		})
	}},
	// Figure 5: PURE vs THRES(Δ=1) vs ADAPT.
	{"5", func(Config) []panel {
		return perScenario("Figure 5: PURE vs THRES vs ADAPT", pureThresAdapt)
	}},
	// Section 8: AST scales with the communication-to-computation cost
	// ratio.
	{"ccr", func(Config) []panel {
		var ps []panel
		for _, ccr := range []float64{0.5, 1, 2, 4} {
			ps = append(ps, mdet(fmt.Sprintf("Section 8: CCR sweep (CCR=%.1f)", ccr), fmt.Sprintf("MDET CCR=%.1f", ccr),
				func(cfg *Config) { cfg.Workload.CCR = ccr }, pureAdapt()...))
		}
		return ps
	}},
	// Section 8: AST scales with the mean subtask execution time. Message
	// sizes follow CCR so communication scales proportionally.
	{"met", func(Config) []panel {
		var ps []panel
		for _, met := range []float64{5, 20, 80} {
			ps = append(ps, mdet(fmt.Sprintf("Section 8: MET sweep (MET=%g)", met), fmt.Sprintf("MDET MET=%g", met),
				func(cfg *Config) { cfg.Workload.MET = met }, pureAdapt()...))
		}
		return ps
	}},
	// Section 8: AST scales with the degree of task-graph parallelism,
	// by reshaping the random graphs: deep (low parallelism), the paper's
	// default, and shallow (high parallelism).
	{"par", func(Config) []panel {
		var ps []panel
		for _, sh := range []struct {
			name               string
			minDepth, maxDepth int
		}{
			{"deep 14-18 levels", 14, 18},
			{"default 8-12 levels", 8, 12},
			{"shallow 4-6 levels", 4, 6},
		} {
			ps = append(ps, mdet("Section 8: parallelism sweep ("+sh.name+")", "MDET "+sh.name,
				func(cfg *Config) { cfg.Workload.MinDepth, cfg.Workload.MaxDepth = sh.minDepth, sh.maxDepth },
				pureAdapt()...))
		}
		return ps
	}},
	// Section 8: AST scales across interconnection topologies.
	{"topo", func(Config) []panel {
		var ps []panel
		for _, topo := range []struct {
			name string
			make func(n int) platform.Topology
		}{
			{"shared-bus", func(int) platform.Topology { return platform.SharedBus{PerItemCost: 1} }},
			{"full-mesh", func(int) platform.Topology { return platform.FullMesh{PerItemCost: 1} }},
			{"ring", func(n int) platform.Topology { return platform.Ring{NumProcs: n, PerItemCost: 1} }},
			{"star", func(int) platform.Topology { return platform.Star{PerItemCost: 1} }},
		} {
			ps = append(ps, mdet("Section 8: topology sweep ("+topo.name+")", "MDET "+topo.name,
				func(cfg *Config) {
					cfg.Platform = func(n int) (*platform.System, error) {
						return platform.New(n, platform.WithTopology(topo.make(n)))
					}
				}, pureAdapt()...))
		}
		return ps
	}},
	// Section 8 future work: AST on the structured task-graph shapes
	// (chain, trees, fork-join, layered), which replace the random
	// generator, sized to stay near the paper's 40-60 subtasks.
	{"shapes", func(Config) []panel {
		var ps []panel
		for _, sc := range []generator.StructuredConfig{
			{Shape: generator.ShapeChain, Depth: 48},
			{Shape: generator.ShapeOutTree, Depth: 5, Width: 2},  // 31 subtasks
			{Shape: generator.ShapeInTree, Depth: 5, Width: 2},   // 31 subtasks
			{Shape: generator.ShapeForkJoin, Depth: 8, Width: 5}, // 49 subtasks
			{Shape: generator.ShapeLayered, Depth: 10, Width: 5}, // 50 subtasks
		} {
			ps = append(ps, mdet("Section 8 (future work): structured graphs ("+sc.Shape.String()+")",
				"MDET "+sc.Shape.String(), func(cfg *Config) { cfg.Structured = &sc }, pureAdapt()...))
		}
		return ps
	}},
	// Section 8 (future work: "evaluate AST on a set of realistic
	// benchmarks ... larger applications"): one panel per application,
	// over a batch of WCET-jittered instances, with the applications' own
	// strict locality constraints in force. The deviation stays the
	// base's: the applications bring their own execution times.
	{"apps", func(Config) []panel {
		var ps []panel
		for _, app := range apps.All() {
			ps = append(ps, panel{
				title:    "Section 8 (future work): benchmark application (" + app.Name + ")",
				scenario: app.Name + " (" + app.About + ")",
				edit:     func(cfg *Config) { cfg.Custom = app.Build },
				curves:   pureThresAdapt(),
			})
		}
		return ps
	}},
	// Extension X1: the one-pass Kao & Garcia-Molina baselines against
	// PURE and ADAPT.
	{"baselines", func(Config) []panel {
		curves := pureAdapt()
		for _, s := range strategy.All() {
			curves = append(curves, Baseline(s))
		}
		return []panel{mdet("Extension X1: one-pass baselines vs slicing", "", nil, curves...)}
	}},
	// Extension X2: the contention-free bus of the paper's base model
	// against a contended EDF bus (CCAA estimates, since communication is
	// what contends).
	{"bus", func(Config) []panel {
		var ps []panel
		for _, bus := range []struct {
			name string
			edit func(cfg *Config)
		}{
			{"contention-free bus", nil},
			{"contended EDF bus", func(cfg *Config) {
				cfg.Platform = func(n int) (*platform.System, error) {
					return platform.New(n, platform.WithBusContention())
				}
			}},
		} {
			ps = append(ps, mdet("Extension X2: bus contention ablation ("+bus.name+")", "MDET "+bus.name, bus.edit,
				Slicing(core.PURE(), core.CCAA()),
				Slicing(core.ADAPT(defaultThresFactor), core.CCAA())))
		}
		return ps
	}},
	// Extension X3, motivated directly by the paper's title: a growing
	// fraction of the boundary (sensor/actuator) subtasks is given strict
	// locality constraints, interpolating between fully relaxed (the
	// paper's experiments) and fully pinned boundaries.
	{"locality", func(Config) []panel {
		var ps []panel
		for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
			ps = append(ps, mdet(fmt.Sprintf("Extension X3: strict-locality fraction %.0f%%", 100*frac),
				fmt.Sprintf("MDET pinned=%.0f%%", 100*frac), func(cfg *Config) {
					cfg.Workload.PinnedFraction = frac
					cfg.Workload.PinnedProcs = 2
				}, pureAdapt()...))
		}
		return ps
	}},
	// Section 8 future work "explore the quality of AST under various
	// task assignment and scheduling policies": each dispatch policy (EDF,
	// LLF, FIFO, HLF).
	{"policy", func(Config) []panel {
		var ps []panel
		for _, p := range scheduler.Policies() {
			ps = append(ps, mdet("Section 8: dispatch policy sweep ("+p.String()+")", "MDET "+p.String(),
				func(cfg *Config) { cfg.Scheduler.Policy = p }, pureAdapt()...))
		}
		return ps
	}},
	// Section 8 future work on run-time models: the paper's
	// non-preemptive time-driven model against preemptive EDF.
	{"preempt", func(Config) []panel {
		var ps []panel
		for _, preemptive := range []bool{false, true} {
			name := "non-preemptive"
			if preemptive {
				name = "preemptive EDF"
			}
			ps = append(ps, mdet("Section 8: run-time model ("+name+")", "MDET "+name,
				func(cfg *Config) { cfg.Preemptive = preemptive }, pureAdapt()...))
		}
		return ps
	}},
	// Section 8 future work "the applicability of AST on a heterogeneous
	// system": processors of mixed speeds with the same aggregate capacity
	// as the homogeneous baseline, so the curves stay comparable.
	{"hetero", func(Config) []panel {
		var ps []panel
		for _, mix := range []struct {
			name  string
			speed func(i, n int) float64
		}{
			{"homogeneous 1x", func(int, int) float64 { return 1 }},
			// Alternating halves: mean speed 1, spread 2:1.
			{"mixed 0.67x/1.33x", func(i, n int) float64 {
				if i%2 == 0 {
					return 2.0 / 3.0
				}
				return 4.0 / 3.0
			}},
			// One fast node among slower ones, mean speed 1.
			{"one 1.5x node", func(i, n int) float64 {
				if i == 0 {
					return 1.5
				}
				return (float64(n) - 1.5) / float64(n-1)
			}},
		} {
			ps = append(ps, mdet("Section 8 (future work): heterogeneous speeds ("+mix.name+")", "MDET "+mix.name,
				func(cfg *Config) {
					cfg.Platform = func(n int) (*platform.System, error) {
						speeds := make([]float64, n)
						for i := range speeds {
							speeds[i] = mix.speed(i, n)
						}
						return platform.New(n, platform.WithSpeeds(speeds))
					}
				}, pureAdapt()...))
		}
		return ps
	}},
	// Extension X5, the Section 8 open question head-on: with messages
	// carried by contended, deadline-scheduled multihop channels
	// (reference [13]), how should the distributor estimate communication
	// costs under relaxed locality constraints? For each network family
	// ADAPT runs with CCNE (ignore channels), CCHOP (mean route cost, this
	// repository's proposal) and CCAA (single-hop pair cost).
	{"channels", func(Config) []panel {
		var ps []panel
		for _, name := range []string{"bus", "ring", "star", "mesh"} {
			build := channel.Builders()[name]
			mkEst := func(sys *platform.System) (core.CommEstimator, error) {
				net, err := build(sys.NumProcs(), 1)
				if err != nil {
					return nil, err
				}
				return core.CCHOP(net), nil
			}
			ps = append(ps, mdet("Extension X5: real-time channels ("+name+" network)", "MDET "+name+" channels",
				func(cfg *Config) {
					cfg.Network = func(n int) (*channel.Network, error) { return build(n, 1) }
				},
				Slicing(core.ADAPT(defaultThresFactor), core.CCNE()),
				SlicingDyn(core.ADAPT(defaultThresFactor), "ADAPT/CCHOP", mkEst),
				Slicing(core.ADAPT(defaultThresFactor), core.CCAA())))
		}
		return ps
	}},
	// Extension X4, the paper's premise head-on: the distribution-first
	// flow (deadlines before assignment, PURE/ADAPT with CCNE estimates)
	// against the conventional assignment-first flow (Sarkar-style
	// clustering pins every subtask, then the distributor runs in the
	// original BST's strict-locality mode with exact communication costs).
	{"order", func(Config) []panel {
		curves := append(pureAdapt(), AssignFirst(core.PURE()), AssignFirst(core.NORM()))
		return []panel{mdet("Extension X4: distribution-first vs assignment-first", "", nil, curves...)}
	}},
	// Extension X6 decomposes ADAPT into its two ingredients: the inflated
	// virtual execution times applied to critical-path ranking only,
	// window sizing only, both (= ADAPT) or neither (= PURE), isolating
	// which ingredient produces the small-system gains DESIGN.md calls out
	// as AST's design choice.
	{"ablate", func(Config) []panel {
		return []panel{mdet("Extension X6: AST ingredient ablation", "", nil,
			labelled{Slicing(core.ADAPTAblation(defaultThresFactor, false, false), core.CCNE()), "neither (PURE)"},
			labelled{Slicing(core.ADAPTAblation(defaultThresFactor, true, false), core.CCNE()), "rank-only"},
			labelled{Slicing(core.ADAPTAblation(defaultThresFactor, false, true), core.CCNE()), "window-only"},
			labelled{Slicing(core.ADAPTAblation(defaultThresFactor, true, true), core.CCNE()), "both (ADAPT)"},
		)}
	}},
	// Extension X7, the reference-[3] flavour of the related work:
	// iterative improvement of an initial distribution ("given an initial
	// local deadline assignment, find an improved solution in reasonable
	// time"). PURE and ADAPT with and without the improvement loop.
	{"improve", func(base Config) []panel {
		icfg := improve.Config{Iterations: 8, Scheduler: base.Scheduler}
		return []panel{mdet("Extension X7: iterative improvement of the distribution", "", nil,
			Slicing(core.PURE(), core.CCNE()),
			Improved(core.PURE(), core.CCNE(), icfg),
			Slicing(core.ADAPT(defaultThresFactor), core.CCNE()),
			Improved(core.ADAPT(defaultThresFactor), core.CCNE(), icfg),
		)}
	}},
	// Ablation X8: the two readings of the paper's "overall laxity ratio"
	// rule (DESIGN.md §3). The default total-workload basis yields
	// feasible schedules whose lateness saturates negative; the tighter
	// longest-path basis drives small systems into overload where all
	// metrics coincide — the evidence behind the model decision.
	{"olr", func(Config) []panel {
		var ps []panel
		for _, basis := range []struct {
			name string
			b    generator.OLRBasis
		}{
			{"OLR x total workload (default)", generator.OLRTotalWork},
			{"OLR x longest path", generator.OLRLongestPath},
		} {
			ps = append(ps, mdet("Ablation X8: end-to-end deadline basis ("+basis.name+")", "MDET "+basis.name,
				func(cfg *Config) { cfg.Workload.Basis = basis.b }, pureAdapt()...))
		}
		return ps
	}},
	// Ablation X9: the time-driven run-time model (the default; slices
	// occupy static positions, per BST's static windows) against
	// work-conserving ASAP dispatch that uses the windows only for EDF
	// priorities (DESIGN.md §3).
	{"dispatch", func(Config) []panel {
		var ps []panel
		for _, mode := range []struct {
			name    string
			respect bool
		}{
			{"time-driven (default)", true},
			{"work-conserving ASAP", false},
		} {
			ps = append(ps, mdet("Ablation X9: dispatch model ("+mode.name+")", "MDET "+mode.name,
				func(cfg *Config) { cfg.Scheduler.RespectRelease = mode.respect }, pureAdapt()...))
		}
		return ps
	}},
}

// Figures returns the registry of reproducible experiments, keyed by the
// identifiers used by cmd/dlexp (see DESIGN.md §4).
func Figures() map[string]FigureFunc {
	out := make(map[string]FigureFunc, len(registry))
	for _, f := range registry {
		out[f.key] = f.run
	}
	return out
}

// FigureOrder lists the registry keys in presentation order.
func FigureOrder() []string {
	out := make([]string, len(registry))
	for i, f := range registry {
		out[i] = f.key
	}
	return out
}

// FigureRun is one figure's outcome under RunFigures: its tables, its
// error (with the tables finished before it) and its wall time.
type FigureRun struct {
	Tables  []*Table
	Err     error
	Elapsed time.Duration
}

// RunFigures runs the figures named by keys concurrently over
// base.Orchestrator, so one figure's graphs start while another's
// stragglers finish, and returns their outcomes in key order. A nil
// Orchestrator means RunFigures starts one of base.Workers workers, whose
// caches every figure of the call shares, and closes it before returning.
// An unknown key's outcome carries an error.
func RunFigures(ctx context.Context, base Config, keys []string) []FigureRun {
	if base.Orchestrator == nil {
		orc := NewOrchestrator(base.Workers)
		defer orc.Close()
		base.Orchestrator = orc
	}
	figs := Figures()
	runs := make([]FigureRun, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		fn := figs[key]
		if fn == nil {
			runs[i].Err = fmt.Errorf("unknown figure %q", key)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			tables, err := fn(ctx, base)
			runs[i] = FigureRun{Tables: tables, Err: err, Elapsed: time.Since(start)}
		}()
	}
	wg.Wait()
	return runs
}
