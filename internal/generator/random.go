// Package generator produces task-graph workloads: the random layered
// graphs of Jonsson & Shin (ICDCS 1997, Section 5.2) and the structured
// shapes (chain, in-tree, out-tree, fork-join) called out as future work in
// Section 8.
//
// All generation is driven by the deterministic splittable rng.Source, so a
// (config, seed) pair fully identifies a workload.
package generator

import (
	"errors"
	"fmt"
	"math"

	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// Scenario names an execution-time distribution scenario from the paper:
// the subtask execution times deviate uniformly by at most ±Deviation
// around the mean execution time.
type Scenario struct {
	// Name is the paper's scenario mnemonic (LDET, MDET, HDET).
	Name string
	// Deviation is the maximum relative deviation from the mean execution
	// time (0.25 means ±25%).
	Deviation float64
}

// The three execution-time scenarios used throughout the paper's
// experiments (Section 5.2).
var (
	// LDET is the low-distribution scenario: ±25% around MET.
	LDET = Scenario{Name: "LDET", Deviation: 0.25}
	// MDET is the medium-distribution scenario: ±50% around MET.
	MDET = Scenario{Name: "MDET", Deviation: 0.50}
	// HDET is the high-distribution scenario: ±99% around MET.
	HDET = Scenario{Name: "HDET", Deviation: 0.99}
)

// Scenarios lists the paper's scenarios in presentation order
// (left/middle/right plots of every figure).
func Scenarios() []Scenario { return []Scenario{LDET, MDET, HDET} }

// OLRBasis selects how the overall laxity ratio translates into end-to-end
// deadlines. See DESIGN.md §3.
type OLRBasis int

const (
	// OLRLongestPath sets each output's deadline to OLR × the longest
	// execution-time path from any input to that output. This tighter
	// alternative reading drives every configuration into overload on
	// small systems; provided for comparison.
	OLRLongestPath OLRBasis = iota + 1
	// OLRTotalWork sets every output's deadline to OLR × the accumulated
	// execution time of the whole graph — the paper's literal Section 5.2
	// rule ("the overall laxity ratio between the end-to-end deadline and
	// the accumulated task graph workload corresponded to 1.5"). Default.
	OLRTotalWork
)

// Config parameterizes the random layered task-graph generator. The zero
// value is not useful; start from Default.
type Config struct {
	// MinSubtasks and MaxSubtasks bound the number of ordinary subtasks
	// (inclusive). Paper: 40..60.
	MinSubtasks, MaxSubtasks int
	// MinDepth and MaxDepth bound the number of subtask levels
	// (inclusive). Paper: 8..12.
	MinDepth, MaxDepth int
	// MinFanout and MaxFanout bound the number of successors chosen for
	// each non-terminal subtask (inclusive). Paper: 1..3.
	MinFanout, MaxFanout int
	// MET is the mean subtask execution time. Paper: 20.
	MET float64
	// ExecDeviation is the maximum relative deviation of execution times
	// around MET (set from a Scenario). Paper: 0.25 / 0.50 / 0.99.
	ExecDeviation float64
	// CCR is the communication-to-computation cost ratio: the mean message
	// communication cost divided by MET. Paper: 1.0.
	CCR float64
	// PerItemCost is the bus cost of one data item, used to convert CCR
	// into a mean message size. Paper platform: 1.0.
	PerItemCost float64
	// MsgDeviation is the maximum relative deviation of message sizes
	// around their mean. The paper pins only the mean (via CCR); the
	// spread defaults to ±50%.
	MsgDeviation float64
	// OLR is the overall laxity ratio used to derive end-to-end deadlines.
	// Paper: 1.5.
	OLR float64
	// Basis selects the deadline derivation rule. The zero value behaves
	// as OLRTotalWork, the paper's rule.
	Basis OLRBasis
	// PinnedFraction is the probability that an input or output subtask
	// receives a strict locality constraint (pinned to a processor drawn
	// uniformly from [0, PinnedProcs)), modelling sensor/actuator subtasks
	// bound to specific nodes. The paper's systems have "only a small
	// number of task assignments governed by strict locality constraints".
	// Default 0 (fully relaxed).
	PinnedFraction float64
	// PinnedProcs is the processor pool pinned subtasks draw from; it must
	// not exceed the smallest platform the graphs will run on. Defaults to
	// 2 when PinnedFraction > 0.
	PinnedProcs int
}

// Default returns the paper's Section 5.2 workload configuration under the
// given execution-time scenario.
func Default(s Scenario) Config {
	return Config{
		MinSubtasks:   40,
		MaxSubtasks:   60,
		MinDepth:      8,
		MaxDepth:      12,
		MinFanout:     1,
		MaxFanout:     3,
		MET:           20,
		ExecDeviation: s.Deviation,
		CCR:           1.0,
		PerItemCost:   1.0,
		MsgDeviation:  0.5,
		OLR:           1.5,
		Basis:         OLRTotalWork,
	}
}

// Validate reports whether the configuration is internally consistent
// and every number in it finite and in range.
func (c Config) Validate() error {
	// The float checks are written as inclusions, so NaN fails each one.
	switch {
	case c.MinSubtasks < 1 || c.MaxSubtasks < c.MinSubtasks:
		return fmt.Errorf("subtask bounds [%d,%d]: %w", c.MinSubtasks, c.MaxSubtasks, errBadConfig)
	case c.MinDepth < 1 || c.MaxDepth < c.MinDepth:
		return fmt.Errorf("depth bounds [%d,%d]: %w", c.MinDepth, c.MaxDepth, errBadConfig)
	case c.MinFanout < 1 || c.MaxFanout < c.MinFanout:
		return fmt.Errorf("fanout bounds [%d,%d]: %w", c.MinFanout, c.MaxFanout, errBadConfig)
	case !(c.MET > 0 && c.MET <= MaxScale):
		return fmt.Errorf("MET %v: %w", c.MET, errBadConfig)
	case !(c.ExecDeviation >= 0 && c.ExecDeviation <= 1):
		return fmt.Errorf("exec deviation %v: %w", c.ExecDeviation, errBadConfig)
	case !(c.CCR >= 0 && c.CCR <= MaxScale):
		return fmt.Errorf("CCR %v: %w", c.CCR, errBadConfig)
	case !(c.PerItemCost > 0 && c.PerItemCost <= math.MaxFloat64):
		return fmt.Errorf("per-item cost %v: %w", c.PerItemCost, errBadConfig)
	case !(c.MsgDeviation >= 0 && c.MsgDeviation <= 1):
		return fmt.Errorf("message deviation %v: %w", c.MsgDeviation, errBadConfig)
	case !(c.OLR > 0 && c.OLR <= MaxScale):
		return fmt.Errorf("OLR %v: %w", c.OLR, errBadConfig)
	case !(c.PinnedFraction >= 0 && c.PinnedFraction <= 1):
		return fmt.Errorf("pinned fraction %v: %w", c.PinnedFraction, errBadConfig)
	case c.PinnedProcs < 0:
		return fmt.Errorf("pinned processor pool %d: %w", c.PinnedProcs, errBadConfig)
	}
	return nil
}

// MaxScale bounds MET, CCR and OLR. At or below it (with a unit
// per-item cost) every execution time, message size and end-to-end
// deadline of a graph that fits in memory is finite, so it encodes as
// JSON.
const MaxScale = 1e6

var errBadConfig = errors.New("invalid generator config")

// MeanMessageSize returns the mean message size in data items implied by
// CCR: size × PerItemCost averages to CCR × MET.
func (c Config) MeanMessageSize() float64 {
	return c.CCR * c.MET / c.PerItemCost
}

// Random generates one random layered task graph. The same (config, source
// state) always yields the same graph.
//
// Construction: the subtask count and depth are drawn from their ranges;
// subtasks are spread over the levels (each level gets at least one);
// every subtask in level l < depth draws 1..3 distinct successors from
// level l+1; every subtask in level l > 1 that ended up without a
// predecessor is attached to a random subtask of level l-1, so the graph
// has exactly the drawn depth and no disconnected subtasks. Execution
// times, message sizes and end-to-end deadlines follow Config.
func Random(cfg Config, src *rng.Source) (*taskgraph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := src.IntIn(cfg.MinSubtasks, cfg.MaxSubtasks)
	depth := src.IntIn(cfg.MinDepth, cfg.MaxDepth)
	if depth > n {
		depth = n
	}

	// Spread n subtasks over depth levels, each level non-empty.
	widths := make([]int, depth)
	for i := range widths {
		widths[i] = 1
	}
	for extra := n - depth; extra > 0; extra-- {
		widths[src.IntN(depth)]++
	}

	// n subtasks plus one message node per arc; each non-terminal subtask
	// fans out to ~(MinFanout+MaxFanout)/2 successors.
	b := taskgraph.NewBuilderHint(n + n*(cfg.MinFanout+cfg.MaxFanout+1)/2)
	levels := make([][]taskgraph.NodeID, depth)
	for l := 0; l < depth; l++ {
		levels[l] = make([]taskgraph.NodeID, widths[l])
		for i := range levels[l] {
			cost := src.Float64In(cfg.MET*(1-cfg.ExecDeviation), cfg.MET*(1+cfg.ExecDeviation))
			levels[l][i] = b.AddSubtask("", cost)
		}
	}

	msgSize := func() float64 {
		mean := cfg.MeanMessageSize()
		return src.Float64In(mean*(1-cfg.MsgDeviation), mean*(1+cfg.MsgDeviation))
	}

	hasPred := make(map[taskgraph.NodeID]bool, n)
	for l := 0; l+1 < depth; l++ {
		next := levels[l+1]
		for _, u := range levels[l] {
			k := src.IntIn(cfg.MinFanout, cfg.MaxFanout)
			if k > len(next) {
				k = len(next)
			}
			for _, pi := range src.Perm(len(next))[:k] {
				v := next[pi]
				b.Connect(u, v, msgSize())
				hasPred[v] = true
			}
		}
		// Attach orphans of the next level so depth is exact and the graph
		// has no spurious input subtasks below level 1.
		for _, v := range next {
			if !hasPred[v] {
				u := levels[l][src.IntN(len(levels[l]))]
				b.Connect(u, v, msgSize())
				hasPred[v] = true
			}
		}
	}

	// Strict locality constraints: pin a fraction of the boundary
	// subtasks (inputs and outputs — the sensor/actuator roles).
	if cfg.PinnedFraction > 0 {
		pool := cfg.PinnedProcs
		if pool < 1 {
			pool = 2
		}
		boundary := levels[0]
		if depth > 1 {
			boundary = append(append([]taskgraph.NodeID{}, levels[0]...), levels[depth-1]...)
		}
		for _, id := range boundary {
			if src.Float64() < cfg.PinnedFraction {
				b.Pin(id, src.IntN(pool))
			}
		}
	}

	g, err := b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("generate random graph: %w", err)
	}
	applyOLR(g, cfg)
	return g, nil
}

// Batch generates count graphs using independent child streams split from
// src, one per graph. Graph i is reproducible from (cfg, seed, i) alone.
func Batch(cfg Config, src *rng.Source, count int) ([]*taskgraph.Graph, error) {
	graphs := make([]*taskgraph.Graph, count)
	for i := range graphs {
		g, err := Random(cfg, src.Split(uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("graph %d: %w", i, err)
		}
		graphs[i] = g
	}
	return graphs, nil
}

func applyOLR(g *taskgraph.Graph, cfg Config) {
	if cfg.Basis == OLRLongestPath {
		g.AssignDeadlinesByOLR(cfg.OLR)
		return
	}
	g.AssignDeadlinesByTotalWork(cfg.OLR)
}
