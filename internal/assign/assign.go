// Package assign implements task-assignment heuristics that produce a full
// static task-to-processor mapping before scheduling — the "conventional
// order" the paper argues against. With an assignment in hand, every
// communication cost is known exactly and deadline distribution can run in
// its classic strict-locality mode; comparing that flow against the
// paper's distribution-first flow reproduces the premise of the paper
// (experiment X4 in DESIGN.md).
//
// The heuristic is load-capped Sarkar-style edge zeroing followed by
// load-balanced cluster-to-processor mapping:
//
//  1. every subtask starts in its own cluster;
//  2. messages are visited in decreasing size order (ties by NodeID); a
//     message's producer and consumer clusters are merged ("the edge is
//     zeroed") unless they are pinned to different processors or the
//     merged load would exceed the cap: the balanced per-processor share
//     of the total work, raised to the critical-path workload and to the
//     largest subtask;
//  3. clusters are mapped to processors largest-first onto the least
//     loaded processor (LPT), honouring pinned subtasks.
//
// Sarkar's step 2 also rejects a merge that grows the estimated critical
// path (execution plus size × mean pair cost of every arc between distinct
// clusters). That check cannot fire: a merge only turns arc costs
// size × pairCost ≥ 0 into 0, and IEEE + and max are monotone, so the
// estimate never grows. Cluster skips it, and refuses the only platforms on
// which it could have rejected a merge: those whose mean pair cost is
// negative or non-finite.
package assign

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Errors returned by Cluster and Apply.
var (
	ErrNilInput    = errors.New("assignment needs a graph and a platform")
	ErrPinConflict = errors.New("pinned subtasks with different processors ended up in one cluster")
	ErrBadCommCost = errors.New("interprocessor communication cost is negative or non-finite")
)

// Assignment maps every ordinary subtask to a processor. Entries for
// communication subtasks are -1.
type Assignment []int

// Cluster computes a static assignment of g's subtasks onto sys.
func Cluster(g *taskgraph.Graph, sys *platform.System) (Assignment, error) {
	if g == nil || sys == nil {
		return nil, ErrNilInput
	}
	// Merges skip Sarkar's critical-path check, which is sound only for a
	// non-negative, finite pair cost (see the package comment).
	if pc := meanPairCost(sys); !(pc >= 0 && pc <= math.MaxFloat64) {
		return nil, fmt.Errorf("mean interprocessor cost %v: %w", pc, ErrBadCommCost)
	}
	n := g.NumNodes()

	// Union-find over subtasks.
	parent := make([]taskgraph.NodeID, n)
	for i := range parent {
		parent[i] = taskgraph.NodeID(i)
	}
	var find func(taskgraph.NodeID) taskgraph.NodeID
	find = func(x taskgraph.NodeID) taskgraph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// rootPin tracks the strict locality constraint of each cluster
	// (clusters with conflicting pins are never merged) and rootLoad its
	// workload: merges stop at the balanced per-processor share so the
	// clustering stays platform-aware (a load-capped Sarkar variant —
	// unbounded edge zeroing collapses layered graphs into one or two
	// clusters).
	rootPin := make([]int, n)
	rootLoad := make([]float64, n)
	maxCost := 0.0
	var msgs []taskgraph.NodeID
	for _, node := range g.NodesView() {
		if node.Kind == taskgraph.KindMessage {
			msgs = append(msgs, node.ID)
			continue
		}
		rootPin[node.ID], rootLoad[node.ID] = node.Pinned, node.Cost
		maxCost = max(maxCost, node.Cost)
	}
	// The cap is the balanced per-processor share, but never below the
	// critical-path workload: a cluster following one dependence chain
	// gains nothing from being split, however many processors exist.
	loadCap := g.TotalWork() / float64(sys.NumProcs())
	if cp := g.LongestPath(taskgraph.ExecCost); loadCap < cp {
		loadCap = cp
	}
	if loadCap < maxCost {
		loadCap = maxCost
	}

	// Edge zeroing in decreasing message-size order.
	sort.Slice(msgs, func(i, j int) bool {
		si, sj := g.Node(msgs[i]).Size, g.Node(msgs[j]).Size
		if si != sj {
			return si > sj
		}
		return msgs[i] < msgs[j]
	})
	for _, m := range msgs {
		u, v := find(g.Pred(m)[0]), find(g.Succ(m)[0])
		if u == v {
			continue
		}
		// Never join clusters carrying conflicting strict locality
		// constraints, and keep cluster loads within the balanced share.
		if rootPin[u] != taskgraph.Unpinned && rootPin[v] != taskgraph.Unpinned &&
			rootPin[u] != rootPin[v] {
			continue
		}
		if rootLoad[u]+rootLoad[v] > loadCap+1e-9 {
			continue
		}
		parent[v] = u
		if rootPin[u] == taskgraph.Unpinned {
			rootPin[u] = rootPin[v]
		}
		rootLoad[u] += rootLoad[v]
	}

	return mapClusters(g, sys, find, rootLoad, rootPin)
}

// mapClusters places clusters on processors, largest first, onto the least
// loaded processor; clusters containing pinned subtasks go to the pinned
// processor. Per-cluster state lives in flat arrays indexed by the cluster's
// root NodeID: load and proc are Cluster's per-root arrays, overwritten
// here, so each load is summed afresh in node-ID order.
func mapClusters(g *taskgraph.Graph, sys *platform.System,
	find func(taskgraph.NodeID) taskgraph.NodeID, load []float64, proc []int) (Assignment, error) {

	n := g.NumNodes()
	// first[r] is root r's smallest member, taskgraph.None until r's first
	// member is visited. proc[r] is the cluster's pin (taskgraph.Unpinned
	// when free) until placement, then the processor it goes to.
	first := make([]taskgraph.NodeID, n)
	for i := range first {
		first[i] = taskgraph.None
	}
	var roots []taskgraph.NodeID
	for _, node := range g.NodesView() {
		if node.Kind != taskgraph.KindSubtask {
			continue
		}
		root := find(node.ID)
		if first[root] == taskgraph.None {
			first[root], load[root], proc[root] = node.ID, 0, taskgraph.Unpinned
			roots = append(roots, root)
		}
		load[root] += node.Cost
		if node.Pinned != taskgraph.Unpinned {
			if proc[root] != taskgraph.Unpinned && proc[root] != node.Pinned {
				return nil, fmt.Errorf("cluster of %q: %w", node.Name, ErrPinConflict)
			}
			if node.Pinned >= sys.NumProcs() {
				return nil, fmt.Errorf("subtask %q pinned to %d on %d processors",
					node.Name, node.Pinned, sys.NumProcs())
			}
			proc[root] = node.Pinned
		}
	}
	// (load, first member) is a strict order, so the sort is unique.
	slices.SortFunc(roots, func(a, b taskgraph.NodeID) int {
		if load[a] != load[b] {
			if load[a] > load[b] {
				return -1
			}
			return 1
		}
		return int(first[a] - first[b])
	})

	loads := make([]float64, sys.NumProcs())
	for _, r := range roots {
		p := proc[r]
		if p == taskgraph.Unpinned {
			p = 0
			for q := 1; q < sys.NumProcs(); q++ {
				if loads[q] < loads[p] {
					p = q
				}
			}
		}
		loads[p] += load[r] / sys.Speed(p)
		proc[r] = p
	}
	out := make(Assignment, n)
	for _, node := range g.NodesView() {
		out[node.ID] = -1
		if node.Kind == taskgraph.KindSubtask {
			out[node.ID] = proc[find(node.ID)]
		}
	}
	return out, nil
}

// Apply returns a clone of g with every subtask pinned to its assigned
// processor, turning a relaxed-locality graph into a strict-locality one.
func Apply(g *taskgraph.Graph, a Assignment) (*taskgraph.Graph, error) {
	if len(a) != g.NumNodes() {
		return nil, fmt.Errorf("assignment for %d nodes, graph has %d", len(a), g.NumNodes())
	}
	c := g.Clone()
	for _, node := range g.NodesView() {
		if node.Kind != taskgraph.KindSubtask {
			continue
		}
		if a[node.ID] < 0 {
			return nil, fmt.Errorf("subtask %q unassigned", node.Name)
		}
		if err := c.SetPinned(node.ID, a[node.ID]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// meanPairCost mirrors the estimation used by CCAA: the mean cost of one
// data item between two distinct processors.
func meanPairCost(sys *platform.System) float64 {
	n := sys.NumProcs()
	if n < 2 {
		return 0
	}
	sum, pairs := 0.0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += sys.CommCost(i, j, 1)
				pairs++
			}
		}
	}
	return sum / float64(pairs)
}
