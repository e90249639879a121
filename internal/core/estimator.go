package core

import (
	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// CommEstimator predicts the communication cost of every communication
// subtask before the task assignment is known. This is the step that lets
// the deadline distribution run under relaxed locality constraints
// (Section 5.4 of the paper).
type CommEstimator interface {
	// Name returns the paper's mnemonic (CCNE, CCAA, ...).
	Name() string
	// Estimate writes into dst, indexed by NodeID, the estimated
	// communication cost of every node; entries for ordinary subtasks are
	// 0. dst is resized to g.NumNodes() and reallocated only when short
	// (a nil dst allocates); its contents on entry are ignored.
	Estimate(dst []float64, g *taskgraph.Graph, sys *platform.System) []float64
}

// ccne assumes communication is never inter-processor.
type ccne struct{}

// CCNE returns the Communication Cost Non-Existing strategy: every message
// is assumed intra-processor, hence free. The paper finds this strategy
// superior because it leaves the maximum slack pool for the subtasks.
func CCNE() CommEstimator { return ccne{} }

var _ CommEstimator = ccne{}

func (ccne) Name() string { return "CCNE" }

func (ccne) Estimate(dst []float64, g *taskgraph.Graph, _ *platform.System) []float64 {
	dst = resizeSlice(dst, g.NumNodes())
	clear(dst)
	return dst
}

// ccaa assumes communication is always inter-processor.
type ccaa struct{}

// CCAA returns the Communication Cost Always Assumed strategy: every
// message is charged the platform's inter-processor cost (averaged over all
// distinct processor pairs, which matters for non-uniform topologies such
// as rings).
func CCAA() CommEstimator { return ccaa{} }

var _ CommEstimator = ccaa{}

func (ccaa) Name() string { return "CCAA" }

func (ccaa) Estimate(dst []float64, g *taskgraph.Graph, sys *platform.System) []float64 {
	return perItem(dst, g, meanPairCost(sys))
}

// ccexp scales the always-assumed cost by the probability that two
// uniformly random placements land on different processors.
type ccexp struct{}

// CCEXP returns the expected-cost strategy (an extension beyond the paper):
// each message is charged (1 − 1/N_proc) × the mean inter-processor cost,
// its expected cost under uniformly random assignment. It interpolates
// between CCNE (N=1) and CCAA (N→∞).
func CCEXP() CommEstimator { return ccexp{} }

var _ CommEstimator = ccexp{}

func (ccexp) Name() string { return "CCEXP" }

func (ccexp) Estimate(dst []float64, g *taskgraph.Graph, sys *platform.System) []float64 {
	scale := 1 - 1/float64(sys.NumProcs())
	if scale == 0 {
		return ccne{}.Estimate(dst, g, sys)
	}
	return perItem(dst, g, scale*meanPairCost(sys))
}

// RouteCoster abstracts the part of a multihop network the CCHOP strategy
// needs: the mean uncontended route cost of one data item. Satisfied by
// *channel.Network.
type RouteCoster interface {
	MeanRouteCost() float64
}

// cchop estimates multihop channel costs by mean route length.
type cchop struct {
	net RouteCoster
}

// CCHOP returns the real-time-channel estimation strategy, this
// repository's answer to the paper's Section 8 open question ("it is far
// from obvious how the communication cost for a real-time channel should
// be estimated in a system with relaxed locality constraints"): each
// message is charged its size times the mean uncontended route cost over
// all processor pairs of the network — CCAA generalized to multihop
// routes, ignoring link contention just as CCAA ignores bus contention.
func CCHOP(net RouteCoster) CommEstimator { return cchop{net: net} }

var _ CommEstimator = cchop{}

func (cchop) Name() string { return "CCHOP" }

func (e cchop) Estimate(dst []float64, g *taskgraph.Graph, _ *platform.System) []float64 {
	return perItem(dst, g, e.net.MeanRouteCost())
}

// ccKnown charges each message its exact cost under a known assignment.
type ccKnown struct {
	assign []int
}

// CCKnown returns the strict-locality estimator: with the task assignment
// known (assign[id] = processor of subtask id), every message cost is
// exact — zero when producer and consumer are co-located, the platform
// cost otherwise. This is the mode in which the original BST operates; it
// turns the distributor into a classic assignment-first technique for
// comparison experiments. Messages whose endpoints are pinned in the graph
// but absent from assign fall back to the graph's Pinned annotations.
func CCKnown(assign []int) CommEstimator {
	return ccKnown{assign: append([]int(nil), assign...)}
}

var _ CommEstimator = ccKnown{}

func (ccKnown) Name() string { return "CCKNOWN" }

func (e ccKnown) Estimate(est []float64, g *taskgraph.Graph, sys *platform.System) []float64 {
	est = resizeSlice(est, g.NumNodes())
	clear(est)
	procOf := func(id taskgraph.NodeID) int {
		if int(id) < len(e.assign) && e.assign[id] >= 0 {
			return e.assign[id]
		}
		return g.Node(id).Pinned
	}
	for _, n := range g.NodesView() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		u, v := procOf(g.Pred(n.ID)[0]), procOf(g.Succ(n.ID)[0])
		switch {
		case u < 0 || v < 0:
			// Unknown endpoint: behave like CCAA for this message.
			est[n.ID] = meanPairCost(sys) * n.Size
		case u >= sys.NumProcs() || v >= sys.NumProcs():
			est[n.ID] = meanPairCost(sys) * n.Size
		default:
			est[n.ID] = sys.CommCost(u, v, n.Size)
		}
	}
	return est
}

// perItem charges every message unit × its size (its cost field); other
// nodes get 0.
func perItem(dst []float64, g *taskgraph.Graph, unit float64) []float64 {
	dst = resizeSlice(dst, g.NumNodes())
	clear(dst)
	kinds, costs := g.Kinds(), g.Costs()
	for id, k := range kinds {
		if k == taskgraph.KindMessage {
			dst[id] = unit * costs[id]
		}
	}
	return dst
}

// meanPairCost returns the mean cost of transferring one data item between
// two distinct processors (1.0 for the paper's unit shared bus).
func meanPairCost(sys *platform.System) float64 {
	n := sys.NumProcs()
	if n < 2 {
		return 0
	}
	sum, pairs := 0.0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sum += sys.CommCost(i, j, 1)
			pairs++
		}
	}
	return sum / float64(pairs)
}
