package core

import (
	"fmt"
	"math"

	"deadlinedist/internal/taskgraph"
)

// Result is an annotated task graph: the outcome of a deadline
// distribution. All slices are indexed by taskgraph.NodeID.
type Result struct {
	// Release is the absolute release time r_i assigned to each node.
	Release []float64
	// Relative is the relative deadline d_i assigned to each node
	// (zero-width for negligible nodes).
	Relative []float64
	// Absolute is the absolute deadline D_i = Release + Relative.
	Absolute []float64
	// Windowed reports whether the node received a non-degenerate
	// execution window (always true for subtasks with positive virtual
	// cost; false for zero-cost communication subtasks).
	Windowed []bool
	// EstimatedComm is the communication cost estimate used during
	// distribution, indexed by NodeID (0 for ordinary subtasks).
	EstimatedComm []float64
	// Paths records the critical paths in the order they were sliced.
	Paths [][]taskgraph.NodeID
	// Metric and Estimator name the strategy that produced the result.
	Metric, Estimator string
	// Search counts the critical-path search work behind this result. It
	// is diagnostic only and not part of the distribution semantics.
	Search SearchStats

	// pathBuf is the n-length backing of Paths: the sliced paths partition
	// the nodes, so each path is a cap-limited window of it. Reused when
	// the Result is recycled.
	pathBuf []taskgraph.NodeID
}

// SearchStats counts the work done by the incremental critical-path search
// of one distribution: how many start candidates were examined across all
// slicing iterations, how many per-start DP sweeps actually ran, and how
// many starts reused their memoized candidate instead, and how many DP rows
// and cells those sweeps touched. High CacheReuses
// relative to StartsExamined is what makes the search incremental; every
// candidate memoizes its own backtracked path, so winners never re-run a
// DP just to rebuild their tables.
type SearchStats struct {
	// Iterations is the number of slicing iterations (= len(Paths)).
	Iterations int
	// StartsExamined is the total number of start candidates considered.
	StartsExamined int
	// DPRuns is the number of per-start DP sweeps executed.
	DPRuns int
	// CacheReuses is the number of starts whose memoized candidate was
	// still valid and reused without a DP sweep.
	CacheReuses int
	// DPRows is the number of DP rows expanded: nodes processed across all
	// DP sweeps (each sweep's reachable set).
	DPRows int
	// DPCells is the number of DP cells visited: for every arc expanded,
	// the width of its source row's band [min, max], the inline cell and
	// any cells spilled to the arena.
	DPCells int
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.Iterations += other.Iterations
	s.StartsExamined += other.StartsExamined
	s.DPRuns += other.DPRuns
	s.CacheReuses += other.CacheReuses
	s.DPRows += other.DPRows
	s.DPCells += other.DPCells
}

// Laxity returns the pre-scheduling laxity of node id: the window slack
// d_i − c'_i where c' is the node's distribution-time (virtual) cost. For
// ordinary subtasks the real execution time is used, matching the paper's
// definition (laxity is what the subtask can absorb during scheduling).
func (r *Result) Laxity(g *taskgraph.Graph, id taskgraph.NodeID) float64 {
	n := g.Node(id)
	if n.Kind == taskgraph.KindSubtask {
		return r.Relative[id] - n.Cost
	}
	return r.Relative[id] - r.EstimatedComm[id]
}

// MinLaxity returns the minimum laxity over all ordinary subtasks.
func (r *Result) MinLaxity(g *taskgraph.Graph) float64 {
	min := math.Inf(1)
	for _, n := range g.NodesView() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if l := r.Laxity(g, n.ID); l < min {
			min = l
		}
	}
	return min
}

// Validate checks the structural invariants a distribution must satisfy
// when all windows are feasible (non-negative slack everywhere):
//
//  1. every node is assigned a window with Relative >= 0 and
//     Absolute = Release + Relative;
//  2. for every precedence arc u -> v, Absolute[u] <= Release[v] + eps
//     (windows of a path never overlap);
//  3. for every output subtask, Absolute <= its end-to-end deadline + eps.
//
// Under overload (negative path slack) negative windows are clamped at zero
// and the surviving windows renormalized onto the available span, so
// invariant 3 holds even then; invariant 2 may still be violated when a
// sliced segment's anchors leave a non-positive span (every absolute
// deadline of the segment collapses onto its release anchor, which can sit
// past an already-assigned successor's release). Callers should only
// Validate feasible workloads.
func (r *Result) Validate(g *taskgraph.Graph, eps float64) error {
	n := g.NumNodes()
	if len(r.Release) != n || len(r.Relative) != n || len(r.Absolute) != n {
		return fmt.Errorf("result sized for %d nodes, graph has %d", len(r.Release), n)
	}
	for _, node := range g.NodesView() {
		id := node.ID
		if r.Relative[id] < 0 {
			return fmt.Errorf("node %v: negative relative deadline %v", id, r.Relative[id])
		}
		if diff := r.Absolute[id] - (r.Release[id] + r.Relative[id]); diff > eps || diff < -eps {
			return fmt.Errorf("node %v: absolute %v != release %v + relative %v",
				id, r.Absolute[id], r.Release[id], r.Relative[id])
		}
		for _, s := range g.Succ(id) {
			if r.Absolute[id] > r.Release[s]+eps {
				return fmt.Errorf("arc %v -> %v: absolute deadline %v exceeds successor release %v",
					id, s, r.Absolute[id], r.Release[s])
			}
		}
		if node.Kind == taskgraph.KindSubtask && len(g.Succ(id)) == 0 && node.EndToEnd > 0 {
			if r.Absolute[id] > node.EndToEnd+eps {
				return fmt.Errorf("output %v: absolute deadline %v exceeds end-to-end deadline %v",
					id, r.Absolute[id], node.EndToEnd)
			}
		}
	}
	return nil
}
