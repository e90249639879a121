// Package core implements the paper's primary contribution: distribution of
// end-to-end deadlines over the subtasks of a task graph *before* task
// assignment is known (relaxed locality constraints).
//
// The algorithm (Figure 1 of the paper) repeatedly finds a critical path in
// the not-yet-assigned portion of the graph — the path minimizing a laxity
// ratio metric R — and slices that path's end-to-end deadline into
// non-overlapping execution windows, one per subtask (and per
// non-negligible communication subtask). The metrics are:
//
//   - NORM, PURE: the Basic Slicing Technique (BST) metrics of Di Natale &
//     Stankovic, reproduced here as the paper's baseline (Section 6).
//   - THRES, ADAPT: the Adaptive Slicing Technique (AST) metrics introduced
//     by the paper (Section 7), which inflate the virtual execution time of
//     long subtasks so that they receive extra slack when task-graph
//     parallelism cannot be fully exploited.
package core

import (
	"math"

	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Metric evaluates candidate critical paths and sizes execution windows.
// Implementations must be stateless; per-distribution state is derived in
// VirtualCosts.
type Metric interface {
	// Name returns the paper's mnemonic for the metric.
	Name() string

	// VirtualCosts writes into dst the virtual execution cost c'_i of
	// every node. Ordinary subtasks get their (possibly inflated)
	// execution time; communication subtasks get their estimated
	// communication cost estComm[id]. A node with virtual cost 0 is
	// negligible: it receives a zero-width window and does not count
	// toward the path's node count. dst is resized to g.NumNodes() and
	// reallocated only when short (a nil dst allocates); its contents on
	// entry are ignored.
	VirtualCosts(dst []float64, g *taskgraph.Graph, sys *platform.System, estComm []float64) []float64

	// Ratio returns the laxity ratio R of a path with end-to-end deadline
	// d, accumulated virtual cost sumC and n windowed nodes. Lower values
	// are more critical; +Inf means the path cannot be ranked (no cost or
	// no windowed nodes).
	Ratio(d, sumC float64, n int) float64

	// Window returns the relative deadline of a windowed node with virtual
	// cost c on a path with ratio r. Summing Window over the windowed
	// nodes of the chosen path yields exactly the path's end-to-end
	// deadline (before clamping of negative windows).
	Window(c, r float64) float64
}

// WindowCoster is an optional Metric capability: metrics whose window
// sizing uses different costs than their critical-path ranking implement
// it (used by the AST ingredient ablation). When absent, the same virtual
// costs drive both.
type WindowCoster interface {
	// WindowCosts writes into dst the per-node costs used for window
	// sizing, under VirtualCosts' buffer contract.
	WindowCosts(dst []float64, g *taskgraph.Graph, sys *platform.System, estComm []float64) []float64
}

// subtaskCosts writes real execution times for subtasks and estimated
// communication costs for messages into dst. It runs per (graph, size)
// cell in both the fingerprint and assignment stages, so it reads the
// graph's flat kind/cost views instead of materializing a Node-slice copy.
func subtaskCosts(dst []float64, g *taskgraph.Graph, estComm []float64) []float64 {
	dst = resizeSlice(dst, g.NumNodes())
	kinds, costs := g.Kinds(), g.Costs()
	for id, k := range kinds {
		if k == taskgraph.KindSubtask {
			dst[id] = costs[id]
		} else {
			dst[id] = estComm[id]
		}
	}
	return dst
}

// normMetric is the BST normalized laxity ratio: slack is assigned in
// proportion to execution time.
type normMetric struct{}

// NORM returns the BST normalized-laxity-ratio metric:
// R = (D_Φ − ΣC)/ΣC and d_i = c_i (1 + R).
func NORM() Metric { return normMetric{} }

var _ Metric = normMetric{}

func (normMetric) Name() string { return "NORM" }

func (normMetric) VirtualCosts(dst []float64, g *taskgraph.Graph, _ *platform.System, estComm []float64) []float64 {
	return subtaskCosts(dst, g, estComm)
}

func (normMetric) Ratio(d, sumC float64, _ int) float64 {
	if sumC <= 0 {
		return math.Inf(1)
	}
	return (d - sumC) / sumC
}

func (normMetric) Window(c, r float64) float64 { return c * (1 + r) }

// pureMetric is the BST pure laxity ratio: every windowed node gets an
// equal share of the path slack.
type pureMetric struct{}

// PURE returns the BST pure-laxity-ratio metric:
// R = (D_Φ − ΣC)/n_Φ and d_i = c_i + R.
func PURE() Metric { return pureMetric{} }

var _ Metric = pureMetric{}

func (pureMetric) Name() string { return "PURE" }

func (pureMetric) VirtualCosts(dst []float64, g *taskgraph.Graph, _ *platform.System, estComm []float64) []float64 {
	return subtaskCosts(dst, g, estComm)
}

func (pureMetric) Ratio(d, sumC float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return (d - sumC) / float64(n)
}

func (pureMetric) Window(c, r float64) float64 { return c + r }

// thresMetric is the AST threshold laxity ratio (THRES): PURE over virtual
// execution times, where subtasks at least as long as the execution-time
// threshold are inflated by a fixed surplus factor Δ.
type thresMetric struct {
	delta       float64
	thresFactor float64
}

// THRES returns the AST threshold-laxity-ratio metric. delta is the surplus
// factor Δ (the paper evaluates 1, 2 and 4); thresFactor positions the
// execution-time threshold as a multiple of the graph's mean subtask
// execution time (the paper evaluates 0.75–1.25, recommending values near
// 1; Figure 5 uses 1.25).
func THRES(delta, thresFactor float64) Metric {
	return thresMetric{delta: delta, thresFactor: thresFactor}
}

var _ Metric = thresMetric{}

func (thresMetric) Name() string { return "THRES" }

func (m thresMetric) VirtualCosts(dst []float64, g *taskgraph.Graph, _ *platform.System, estComm []float64) []float64 {
	return inflate(dst, g, estComm, m.thresFactor, m.delta)
}

func (thresMetric) Ratio(d, sumC float64, n int) float64 { return pureMetric{}.Ratio(d, sumC, n) }

func (thresMetric) Window(c, r float64) float64 { return c + r }

// adaptMetric is the AST adaptive laxity ratio (ADAPT): like THRES but the
// surplus factor is ξ/N_proc, the ratio of average task-graph parallelism
// to system size, so the inflation vanishes once the platform can exploit
// all the parallelism in the graph.
type adaptMetric struct {
	thresFactor float64
}

// ADAPT returns the AST adaptive-laxity-ratio metric with the execution-
// time threshold at thresFactor × mean subtask execution time (the paper
// uses 1.25).
func ADAPT(thresFactor float64) Metric { return adaptMetric{thresFactor: thresFactor} }

var _ Metric = adaptMetric{}

func (adaptMetric) Name() string { return "ADAPT" }

func (m adaptMetric) VirtualCosts(dst []float64, g *taskgraph.Graph, sys *platform.System, estComm []float64) []float64 {
	delta := g.AvgParallelism() / float64(sys.NumProcs())
	return inflate(dst, g, estComm, m.thresFactor, delta)
}

func (adaptMetric) Ratio(d, sumC float64, n int) float64 { return pureMetric{}.Ratio(d, sumC, n) }

func (adaptMetric) Window(c, r float64) float64 { return c + r }

// ablationMetric decomposes ADAPT into its two ingredients: using the
// inflated virtual execution times for critical-path ranking, for window
// sizing, or both (= ADAPT) or neither (= PURE). It isolates which
// ingredient of the Adaptive Slicing Technique produces its gains.
type ablationMetric struct {
	factor       float64
	rank, window bool
}

// ADAPTAblation returns an ADAPT variant whose virtual execution times
// apply to critical-path ranking and/or window sizing. (true, true) is
// exactly ADAPT; (false, false) is exactly PURE.
func ADAPTAblation(thresFactor float64, rank, window bool) Metric {
	return ablationMetric{factor: thresFactor, rank: rank, window: window}
}

var (
	_ Metric       = ablationMetric{}
	_ WindowCoster = ablationMetric{}
)

func (m ablationMetric) Name() string {
	switch {
	case m.rank && m.window:
		return "ADAPT(rank+window)"
	case m.rank:
		return "ADAPT(rank-only)"
	case m.window:
		return "ADAPT(window-only)"
	default:
		return "ADAPT(neither)"
	}
}

// VirtualCosts are ADAPT's when the ablation ranks by virtual execution
// times and PURE's otherwise.
func (m ablationMetric) VirtualCosts(dst []float64, g *taskgraph.Graph, sys *platform.System, estComm []float64) []float64 {
	return m.costs(m.rank, dst, g, sys, estComm)
}

// WindowCosts are ADAPT's when the ablation sizes windows by virtual
// execution times and PURE's otherwise.
func (m ablationMetric) WindowCosts(dst []float64, g *taskgraph.Graph, sys *platform.System, estComm []float64) []float64 {
	return m.costs(m.window, dst, g, sys, estComm)
}

func (m ablationMetric) costs(inflated bool, dst []float64, g *taskgraph.Graph, sys *platform.System, estComm []float64) []float64 {
	if inflated {
		return adaptMetric{thresFactor: m.factor}.VirtualCosts(dst, g, sys, estComm)
	}
	return subtaskCosts(dst, g, estComm)
}

func (ablationMetric) Ratio(d, sumC float64, n int) float64 { return pureMetric{}.Ratio(d, sumC, n) }

func (ablationMetric) Window(c, r float64) float64 { return c + r }

// inflate writes into vc the virtual-execution-time rule shared by THRES
// and ADAPT: c' = c when c < c_thres, c(1+Δ) otherwise, with
// c_thres = thresFactor × mean subtask execution time.
func inflate(vc []float64, g *taskgraph.Graph, estComm []float64, thresFactor, delta float64) []float64 {
	vc = resizeSlice(vc, g.NumNodes())
	cthres := thresFactor * g.MeanSubtaskCost()
	kinds, costs := g.Kinds(), g.Costs()
	for id, k := range kinds {
		if k != taskgraph.KindSubtask {
			vc[id] = estComm[id]
			continue
		}
		if c := costs[id]; c >= cthres {
			vc[id] = c * (1 + delta)
		} else {
			vc[id] = c
		}
	}
	return vc
}
