package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Distributor runs the deadline-distribution algorithm of Figure 1 in the
// paper: while unassigned subtasks remain, find the critical path that
// minimizes the metric's laxity ratio, slice its end-to-end deadline into
// execution windows, anchor the remaining subtasks to the sliced spine, and
// repeat.
//
// The search is implemented incrementally: each per-start DP visits only
// the nodes actually reachable from that start through unassigned nodes
// (the DP's own row stamps mark them; no separate reachability pass runs),
// and every start's best candidate is memoized across slicing iterations —
// a cached candidate stays valid until some node of its reachable set is
// assigned (slicing elsewhere in the graph cannot change it; see
// DESIGN.md §8). The output is bit-for-bit identical to the naive
// full-graph search, which is retained as a test-only reference.
type Distributor struct {
	// Metric ranks candidate paths and sizes windows (NORM, PURE, THRES,
	// ADAPT).
	Metric Metric
	// Estimator predicts communication costs before assignment (CCNE,
	// CCAA, CCEXP).
	Estimator CommEstimator
}

// Errors returned by Distribute.
var (
	ErrNilStrategy = errors.New("distributor needs both a metric and a communication estimator")
	ErrNoDeadline  = errors.New("output subtask has no end-to-end deadline")
	ErrNoCritical  = errors.New("internal: no critical path candidate found")
)

// Cached sentinel constants for the hot loops: for every float64 f,
// f == negInf ⇔ math.IsInf(f, -1) and f != f ⇔ math.IsNaN(f), so direct
// comparisons replace the function calls bit-for-bit (NaN compares false
// against negInf exactly as IsInf reports false for NaN).
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// Ratio fast-path kinds recognized by prepare: every stock metric's Ratio
// reduces to one of two closed forms, which evalStart inlines instead of
// calling through the interface. ratioGeneric keeps the interface call for
// unknown metrics, so external Metric implementations stay exact.
const (
	ratioGeneric = iota
	ratioPure    // PURE/THRES/ADAPT/ablation: (d-sumC)/n, +Inf when n <= 0
	ratioNorm    // NORM: (d-sumC)/sumC, +Inf when sumC <= 0
)

// Distribute annotates every node of g with a release time and a relative
// deadline. It never modifies g.
func (d Distributor) Distribute(g *taskgraph.Graph, sys *platform.System) (*Result, error) {
	return d.distribute(nil, g, sys, nil, nil)
}

// Scratch owns the distributor's working set (DP tables, the DP frontier,
// live successor lists, final anchors, candidate memos) so that batch
// drivers can reuse it across Distribute calls instead of reallocating
// ~O(n·width) state per run. A Scratch may be carried across different
// graphs and strategies — every buffer is resized and re-stamped per run,
// and the lazy row-clearing generation is monotone for the Scratch's
// lifetime, so stale rows from an earlier run are never read. Not safe for
// concurrent use; create one per goroutine.
type Scratch struct {
	st distState
}

// NewScratch returns an empty distributor scratch.
func NewScratch() *Scratch { return &Scratch{} }

// DistributeScratch is DistributeScratchContext without a context.
func (d Distributor) DistributeScratch(g *taskgraph.Graph, sys *platform.System, recycle *Result, sc *Scratch) (*Result, error) {
	return d.distribute(nil, g, sys, recycle, sc)
}

// DistributeScratchContext is Distribute with result recycling, a reusable
// working set and cooperative cancellation; every extra argument may be
// nil, and none of them changes the output bit-for-bit.
//
// When recycle is non-nil, its annotation slices are reused for the new
// result (resized as needed) and recycle itself is returned. It is
// overwritten completely, so callers hand over only results they have
// finished consuming. A nil sc allocates a fresh working set.
//
// The context is polled once per slicing round (the unit of work between
// two critical-path selections): a cancelled or expired context aborts the
// run with ctx.Err() before the next round starts. The poll is a single
// channel check per round, so the uncancelled hot path is unaffected.
func (d Distributor) DistributeScratchContext(ctx context.Context, g *taskgraph.Graph, sys *platform.System, recycle *Result, sc *Scratch) (*Result, error) {
	return d.distribute(ctx, g, sys, recycle, sc)
}

// CostVectors writes into dst the vectors through which the platform
// determines d's distribution of g: the metric's virtual costs under the
// estimator's message costs (Sections 5.4 and 7), followed by its window
// costs when the metric is a WindowCoster. Two platforms with equal cost
// vectors yield bit-identical distributions, so they serve as a cache
// fingerprint. dst is resized to g.NumNodes() entries, or twice that, and
// reallocated only when short; the estimate is kept in sc, which may be
// nil.
func (d Distributor) CostVectors(dst []float64, g *taskgraph.Graph, sys *platform.System, sc *Scratch) []float64 {
	if sc == nil {
		sc = NewScratch()
	}
	dst, sc.st.estBuf = d.costVectors(dst, sc.st.estBuf, g, sys)
	return dst
}

// costVectors is CostVectors with the estimate written into est.
func (d Distributor) costVectors(dst, est []float64, g *taskgraph.Graph, sys *platform.System) ([]float64, []float64) {
	est = d.Estimator.Estimate(est, g, sys)
	n := g.NumNodes()
	wc, split := d.Metric.(WindowCoster)
	if !split {
		return d.Metric.VirtualCosts(dst, g, sys, est), est
	}
	dst = resizeSlice(dst, 2*n)
	// Capped halves: an implementation that reallocates instead of
	// filling in place is copied back rather than overrunning the other.
	copy(dst, d.Metric.VirtualCosts(dst[:n:n], g, sys, est))
	copy(dst[n:], wc.WindowCosts(dst[n:2*n:2*n], g, sys, est))
	return dst, est
}

func (d Distributor) distribute(ctx context.Context, g *taskgraph.Graph, sys *platform.System, recycle *Result, sc *Scratch) (*Result, error) {
	if d.Metric == nil || d.Estimator == nil {
		return nil, ErrNilStrategy
	}
	for _, out := range g.OutputsView() {
		if g.Node(out).EndToEnd <= 0 {
			return nil, fmt.Errorf("subtask %q: %w", g.Node(out).Name, ErrNoDeadline)
		}
	}

	n := g.NumNodes()
	res := recycle
	if res == nil {
		res = &Result{
			Release:  make([]float64, n),
			Relative: make([]float64, n),
			Absolute: make([]float64, n),
			Windowed: make([]bool, n),
			pathBuf:  make([]taskgraph.NodeID, n),
		}
	} else {
		res.Release = resizeSlice(res.Release, n)
		res.Relative = resizeSlice(res.Relative, n)
		res.Absolute = resizeSlice(res.Absolute, n)
		res.Windowed = resizeSlice(res.Windowed, n)
		res.pathBuf = resizeSlice(res.pathBuf, n)
		clear(res.Release)
		clear(res.Relative)
		clear(res.Absolute)
		clear(res.Windowed)
		res.Search = SearchStats{}
	}
	res.Metric = d.Metric.Name()
	res.Estimator = d.Estimator.Name()

	st := &distState{}
	if sc != nil {
		st = &sc.st
	}
	st.costs, res.EstimatedComm = d.costVectors(st.costs, res.EstimatedComm, g, sys)
	st.vc, st.vcWin = st.costs[:n], st.costs[:n]
	if len(st.costs) > n {
		st.vcWin = st.costs[n:]
	}
	st.g, st.metric, st.res = g, d.Metric, res
	st.prepare()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// The sliced paths partition the n nodes, so they are laid end to end
	// in the result's n-length pathBuf; ends records each path's end
	// offset, and Paths is cut from those bounds once the loop is done.
	ends := st.pathEnd[:0]
	off := 0
	for st.unassigned > 0 {
		if done != nil {
			select {
			case <-done:
				st.release()
				return nil, ctx.Err()
			default:
			}
		}
		best, err := st.findCriticalPath()
		if err != nil {
			st.release()
			return nil, err
		}
		// Detach the winner's path from the memo's reused buffer into
		// result-owned storage before slicing invalidates the memo.
		end := off + len(best.path)
		path := res.pathBuf[off:end]
		copy(path, best.path)
		st.slice(path, best.ratio)
		off = end
		ends = append(ends, int32(end))
		res.Search.Iterations++
	}
	st.pathEnd = ends
	// Each path is capped at its own length, so an append to one path
	// reallocates instead of overwriting the next.
	res.Paths = resizeSlice(res.Paths, len(ends))
	lo := int32(0)
	for i, hi := range ends {
		res.Paths[i] = res.pathBuf[lo:hi:hi]
		lo = hi
	}
	st.release()
	return res, nil
}

// startCand memoizes one start's best critical-path candidate. It stays
// valid across slicing iterations as long as every node of its reachable
// set is still unassigned: the DP from this start only sees nodes of reach (assignment
// never adds nodes to a reachable set), the start's release anchor is
// frozen (its predecessors are assigned, and assigned windows never move),
// and every deadline anchor inside reach depends only on assigned
// successors, whose status can only change by slicing a reach node.
type startCand struct {
	valid bool
	// found reports whether any deadline-anchored candidate exists from
	// this start.
	found bool
	end   taskgraph.NodeID
	k     int
	ratio float64
	// reachBits is the start's reachable set (through unassigned nodes) at
	// the time the candidate was computed, as a bitset, so the
	// per-iteration validity check (is all of it still unassigned?) is a
	// word-AND sweep against the assigned bitset instead of a per-node walk.
	reachBits []uint64
	// path is the backtracked node sequence of the best candidate, kept so a
	// winning memoized candidate can be sliced without re-running its DP
	// just to rebuild the par table.
	path []taskgraph.NodeID
}

// distState is the per-distribution working set.
type distState struct {
	g      *taskgraph.Graph
	metric Metric
	vc     []float64

	// CSR adjacency of g, bound by prepare so the DP and slicing inner
	// loops iterate flat arrays instead of calling through the Graph API.
	succOff []int32
	succAdj []taskgraph.NodeID
	predOff []int32
	predAdj []taskgraph.NodeID

	// Live successor lists: liveAdj is a scratch copy of succAdj, and node
	// id's unassigned successors are liveAdj[succOff[id]:liveEnd[id]], in
	// original arc order. slice unlinks each assigned node from its
	// unassigned predecessors' lists, so the DP's arc loop never meets an
	// assigned node.
	liveAdj []taskgraph.NodeID
	liveEnd []int32

	// vcWin are the window-sizing costs (same slice as vc unless the
	// metric implements WindowCoster).
	vcWin []float64

	assigned []bool
	res      *Result

	// DP buffers, reused across runs. dp[id][k] is the maximum accumulated
	// virtual cost over paths from the current start to id containing k
	// windowed nodes; par[id][k] is the predecessor on that path. Rows are
	// generation-stamped: a row with rowGen != gen is logically all -Inf
	// and is cleared lazily on its first write, so starting a new DP run is
	// O(1) instead of O(touched × width). The flat backings survive Scratch
	// reuse; gen is monotone for the state's lifetime, so rows left over
	// from an earlier distribution are stale by construction.
	dp      [][]float64
	par     [][]taskgraph.NodeID
	dpFlat  []float64
	parFlat []taskgraph.NodeID
	rowGen  []uint64
	gen     uint64
	// touched lists the rows written by the current DP run, in first-write
	// order (the candidate enumeration order of the reference search).
	touched []taskgraph.NodeID
	// ends is touched filtered to the deadline-anchored rows, in the same
	// order: the only rows evalStart scans.
	ends []taskgraph.NodeID
	// frontier is the current DP's work set as a bitset over topological
	// positions: clearRow sets bit topoIdx[id], and runDP pops the lowest
	// set bit, which visits stamped rows in topological order. Every run
	// pops each bit it sets, so the frontier is empty between runs.
	frontier []uint64
	// infRow is a width-sized -Inf template row: when a DP write extends a
	// row's band (see rowMin/rowMax), the skipped-over gap is memmoved from
	// it instead of stored per element.
	infRow []float64
	// rowMin[id] and rowMax[id] are the lowest and highest k holding a
	// defined value in row id this generation (0 and -1 after a logical
	// clear). Cells inside the band are written values or explicit -Inf
	// gap fill; cells outside it are logically -Inf and never materialized
	// — a write landing there compares against -Inf directly and gap-fills
	// up to the band's old edge, so clearing a row is O(1) and readers
	// scan only the band.
	rowMin []int32
	rowMax []int32

	// topo is the bound graph's topological order and topoIdx[id] the
	// position of id in it (the frontier's bit index).
	topo    []taskgraph.NodeID
	topoIdx []int32
	// assignedBits mirrors assigned as a word-packed bitset (bit id of word
	// id/64), so reachFree is a word-AND sweep.
	assignedBits []uint64

	// Final anchors: relVal[id] is valid once pending[id] == 0 and
	// dlVal[id] once succPending[id] == 0. An anchor reads only assigned
	// windows, which never move, so each is computed once — by prepare
	// for inputs and outputs, by slice when the last predecessor
	// (successor) is assigned — and is never recomputed.
	relVal []float64
	dlVal  []float64

	// ratioKind selects evalStart's inlined Ratio fast path (see the
	// ratio* constants); set by prepare from the metric's concrete type.
	ratioKind int

	// costs backs vc and vcWin (see CostVectors), and estBuf is the
	// estimate CostVectors computes for a caller with no Result to keep
	// it in.
	costs  []float64
	estBuf []float64

	// cand memoizes per-start candidates across slicing iterations,
	// indexed by NodeID.
	cand []startCand

	// Incremental start tracking: pending[id] and succPending[id] count
	// unassigned predecessors and successors; startBits marks (bit id of
	// word id/64) the unassigned nodes whose predecessors are all assigned.
	// startbuf is the reused enumeration buffer.
	pending     []int
	succPending []int
	startBits   []uint64
	startbuf    []taskgraph.NodeID
	unassigned  int

	// winbuf is slice's scratch buffer for the chosen path's raw windows,
	// reused across iterations.
	winbuf []float64
	// pathEnd records the end offset of each sliced path in the result's
	// pathBuf, in slicing order.
	pathEnd []int32

	// prevG memoizes the DP row width and topological index of the last
	// prepared graph: batch callers run the same graph through many
	// strategies and system sizes before moving on, so the longest-path
	// pass (into lpBuf) amortizes to once per graph.
	prevG     *taskgraph.Graph
	prevWidth int
	lpBuf     []int32
}

// prepare sizes the working set for the bound graph, reusing any buffers
// left by a previous distribution. Stale DP rows are handled by the monotone
// generation stamp; everything else is explicitly reset here.
func (st *distState) prepare() {
	n := st.g.NumNodes()
	st.succOff, st.succAdj = st.g.SuccCSR()
	st.predOff, st.predAdj = st.g.PredCSR()
	// The windowed-node count of any path is bounded by the longest path's
	// node count, which is far smaller than the node count for layered
	// graphs; sizing rows accordingly keeps the DP inner loop tight.
	st.topo = st.g.TopoOrder()
	if st.g != st.prevG {
		st.prevG, st.prevWidth = st.g, st.longestPathNodes()+1
		st.topoIdx = resizeSlice(st.topoIdx, n)
		for i, id := range st.topo {
			st.topoIdx[id] = int32(i)
		}
	}
	width := st.prevWidth
	st.dp = resizeSlice(st.dp, n)
	st.par = resizeSlice(st.par, n)
	// Rows are cleared lazily on first touch (rowGen stamps stay behind the
	// next run's gen), so the flat backing needs no -Inf initialization.
	if cap(st.dpFlat) < n*width {
		st.dpFlat = make([]float64, n*width)
		st.parFlat = make([]taskgraph.NodeID, n*width)
	}
	dpFlat := st.dpFlat[:n*width]
	parFlat := st.parFlat[:n*width]
	for i := 0; i < n; i++ {
		st.dp[i] = dpFlat[i*width : (i+1)*width]
		st.par[i] = parFlat[i*width : (i+1)*width]
	}
	st.rowGen = resizeSlice(st.rowGen, n)
	st.rowMin = resizeSlice(st.rowMin, n)
	st.rowMax = resizeSlice(st.rowMax, n)
	if cap(st.infRow) < width {
		st.infRow = make([]float64, width)
		for i := range st.infRow {
			st.infRow[i] = negInf
		}
	}
	st.infRow = st.infRow[:width]
	words := (n + 63) / 64
	st.assignedBits = resizeSlice(st.assignedBits, words)
	clear(st.assignedBits)
	st.startBits = resizeSlice(st.startBits, words)
	clear(st.startBits)
	// A completed DP leaves the frontier empty; clearing it here keeps a
	// Scratch reusable after a run that a recovered panic cut short.
	st.frontier = resizeSlice(st.frontier, words)
	clear(st.frontier)
	switch st.metric.(type) {
	case pureMetric, thresMetric, adaptMetric, ablationMetric:
		st.ratioKind = ratioPure
	case normMetric:
		st.ratioKind = ratioNorm
	default:
		st.ratioKind = ratioGeneric
	}
	// No candidate survives prepare: each run starts with an empty memo.
	st.cand = resizeSlice(st.cand, n)
	for i := range st.cand {
		st.cand[i].valid = false
	}
	st.assigned = resizeSlice(st.assigned, n)
	clear(st.assigned)

	st.pending = resizeSlice(st.pending, n)
	st.succPending = resizeSlice(st.succPending, n)
	st.relVal = resizeSlice(st.relVal, n)
	st.dlVal = resizeSlice(st.dlVal, n)
	st.liveEnd = resizeSlice(st.liveEnd, n)
	st.liveAdj = resizeSlice(st.liveAdj, len(st.succAdj))
	copy(st.liveAdj, st.succAdj)
	st.unassigned = n
	for i := 0; i < n; i++ {
		id := taskgraph.NodeID(i)
		st.pending[i] = int(st.predOff[i+1] - st.predOff[i])
		st.succPending[i] = int(st.succOff[i+1] - st.succOff[i])
		st.liveEnd[i] = st.succOff[i+1]
		if st.pending[i] == 0 {
			st.relVal[i] = st.g.ReleaseOf(id)
			st.startBits[i>>6] |= 1 << (uint(i) & 63)
		}
		if st.succPending[i] == 0 {
			st.dlVal[i] = st.g.EndToEndOf(id)
		}
	}
}

// longestPathNodes returns the node count of the bound graph's longest
// path: LongestPath with unit costs, as an integer pass over the CSR into
// the reused lpBuf.
func (st *distState) longestPathNodes() int {
	acc := resizeSlice(st.lpBuf, st.g.NumNodes())
	clear(acc)
	best := int32(0)
	for _, id := range st.topo {
		v := acc[id] + 1
		best = max(best, v)
		for _, s := range st.succAdj[st.succOff[id]:st.succOff[id+1]] {
			acc[s] = max(acc[s], v)
		}
	}
	st.lpBuf = acc
	return int(best)
}

// release drops the per-run references so a pooled state does not pin the
// result or cost slices between runs (prevG is kept — it backs the row-width
// memo and only ever pins one graph).
func (st *distState) release() {
	st.g = nil
	st.metric = nil
	st.vc, st.vcWin = nil, nil
	st.res = nil
	st.topo = nil
	st.succOff, st.succAdj = nil, nil
	st.predOff, st.predAdj = nil, nil
}

// releaseAnchor returns the path-start release time of unassigned node id,
// valid only when every predecessor has been assigned: the latest absolute
// deadline of any predecessor, or the node's own application release time
// for inputs. It reads the final anchor (see relVal).
func (st *distState) releaseAnchor(id taskgraph.NodeID) (float64, bool) {
	return st.relVal[id], st.pending[id] == 0
}

// releaseAnchorSlow computes releaseAnchor from the assignment state.
func (st *distState) releaseAnchorSlow(id taskgraph.NodeID) (float64, bool) {
	preds := st.predAdj[st.predOff[id]:st.predOff[id+1]]
	if len(preds) == 0 {
		return st.g.ReleaseOf(id), true
	}
	anchor := negInf
	for _, p := range preds {
		if !st.assigned[p] {
			return 0, false
		}
		if st.res.Absolute[p] > anchor {
			anchor = st.res.Absolute[p]
		}
	}
	return anchor, true
}

// deadlineAnchor returns the path-end absolute deadline of unassigned node
// id, valid only when every successor has been assigned: the earliest
// release time of any successor, or the end-to-end deadline for outputs.
// It reads the final anchor (see dlVal).
func (st *distState) deadlineAnchor(id taskgraph.NodeID) (float64, bool) {
	return st.dlVal[id], st.succPending[id] == 0
}

// deadlineAnchorSlow computes deadlineAnchor from the assignment state.
func (st *distState) deadlineAnchorSlow(id taskgraph.NodeID) (float64, bool) {
	succs := st.succAdj[st.succOff[id]:st.succOff[id+1]]
	if len(succs) == 0 {
		return st.g.EndToEndOf(id), true
	}
	anchor := posInf
	for _, s := range succs {
		if !st.assigned[s] {
			return 0, false
		}
		if st.res.Release[s] < anchor {
			anchor = st.res.Release[s]
		}
	}
	return anchor, true
}

// findCriticalPath locates the unassigned path with the minimum metric
// ratio among all (release-anchored, deadline-anchored) node pairs. Ties
// are broken by discovery order (arbitrary, per the paper): the first start
// in ID order, then the first candidate in DP first-write order, reaching
// the minimum — exactly the reference search's choice.
func (st *distState) findCriticalPath() (*startCand, error) {
	var best *startCand
	for _, s := range st.startCandidates() {
		st.res.Search.StartsExamined++
		c := &st.cand[s]
		switch {
		case c.valid && st.reachFree(c.reachBits):
			st.res.Search.CacheReuses++
		default:
			st.runDP(s)
			st.evalStart(s, c)
		}
		if c.found && (best == nil || c.ratio < best.ratio) {
			best = c
		}
	}
	if best == nil {
		return nil, ErrNoCritical
	}

	// The winner's path was backtracked when its candidate was evaluated,
	// so no DP tables need rebuilding here. The
	// caller copies best.path out of the memo's reused buffer before the
	// memo can be overwritten.
	return best, nil
}

// reachFree reports whether every node of a cached reachable set (as a
// bitset) is still unassigned — the memoization validity condition, as a
// word-AND sweep against the assigned bitset.
func (st *distState) reachFree(bits []uint64) bool {
	ab := st.assignedBits
	for i, w := range bits {
		if w&ab[i] != 0 {
			return false
		}
	}
	return true
}

// evalStart scans the just-run DP for start s and memoizes the best
// (deadline-anchored) candidate into c, together with the reachable set
// that conditions its validity.
func (st *distState) evalStart(s taskgraph.NodeID, c *startCand) {
	relAnchor, _ := st.releaseAnchor(s)
	c.valid = true
	c.found = false
	kind := st.ratioKind
	for _, id := range st.ends {
		row := st.dp[id]
		span := st.dlVal[id] - relAnchor
		// Cells outside [rowMin, rowMax] are logically -Inf and never
		// contribute, so the scan covers only the band.
		m := int(st.rowMax[id])
		for k := int(st.rowMin[id]); k <= m; k++ {
			rk := row[k]
			if rk == negInf {
				continue
			}
			var r float64
			switch kind {
			case ratioPure:
				if k <= 0 {
					r = posInf
				} else {
					r = (span - rk) / float64(k)
				}
			case ratioNorm:
				if rk <= 0 {
					r = posInf
				} else {
					r = (span - rk) / rk
				}
			default:
				r = st.metric.Ratio(span, rk, k)
			}
			if !c.found || r < c.ratio {
				c.end, c.k, c.ratio = id, k, r
				c.found = true
			}
		}
	}
	// The touched rows are exactly the DP's reach: runDP processes every
	// row it stamps (see there).
	bits := resizeSlice(c.reachBits, len(st.assignedBits))
	clear(bits)
	for _, id := range st.touched {
		bits[id>>6] |= 1 << (uint(id) & 63)
	}
	c.reachBits = bits
	// Backtrack the winning (end, k) now, while this start's dp/par tables
	// are still in place: the memoized candidate then carries its own path
	// and never needs the tables again.
	c.path = c.path[:0]
	if c.found {
		c.path = st.backtrackInto(c.path, c.end, c.k)
	}
}

// startCandidates fills the reused buffer with the unassigned nodes whose
// predecessors are all assigned, in ID order: the set bits of startBits,
// which slice maintains via pending-predecessor counts.
func (st *distState) startCandidates() []taskgraph.NodeID {
	out := st.startbuf[:0]
	for w, word := range st.startBits {
		for ; word != 0; word &= word - 1 {
			out = append(out, taskgraph.NodeID(w<<6|bits.TrailingZeros64(word)))
		}
	}
	st.startbuf = out
	return out
}

// runDP fills dp/par with the maximum accumulated virtual cost of every
// path from s through unassigned nodes, bucketed by windowed-node count.
//
// Reach is the DP's own row stamp: clearRow runs on every unassigned
// successor of a processed node, so rowGen[v] == gen exactly when v is
// reached from s through unassigned nodes. clearRow also sets v's bit in
// the frontier, and the loop pops the lowest set topological position
// until none is left (pending counts the set bits). A successor sits
// later in topological order than its predecessor, so the pops visit the
// stamped rows in topological order: every stamped row is processed after
// all writes into it, and st.touched ends up holding exactly the
// reachable set.
func (st *distState) runDP(s taskgraph.NodeID) {
	st.gen++
	st.touched = st.touched[:0]
	st.ends = st.ends[:0]
	st.res.Search.DPRuns++

	vc := st.vc
	ws := 0
	if vc[s] > 0 {
		ws = 1
	}
	st.clearRow(s)
	st.dp[s][ws] = vc[s]
	st.par[s][ws] = taskgraph.None
	st.rowMin[s], st.rowMax[s] = int32(ws), int32(ws)

	succOff, liveAdj, liveEnd := st.succOff, st.liveAdj, st.liveEnd
	topo, frontier := st.topo, st.frontier
	dp, par := st.dp, st.par
	rowGen, rowMin, rowMax := st.rowGen, st.rowMin, st.rowMax
	gen := st.gen
	pending, cells := 1, 0
	for w := int(st.topoIdx[s]) >> 6; pending > 0; {
		word := frontier[w]
		if word == 0 {
			w++
			continue
		}
		frontier[w] = word & (word - 1)
		u := topo[w<<6|bits.TrailingZeros64(word)]
		pending--
		row := dp[u]
		// By topological order every write into row u has happened, so
		// [rowMin[u], rowMax[u]] bounds its populated cells.
		umin, umax := int(rowMin[u]), int(rowMax[u])
		for _, v := range liveAdj[succOff[u]:liveEnd[u]] {
			cells += umax - umin + 1
			vcv := vc[v]
			wv := 0
			if vcv > 0 {
				wv = 1
			}
			if rowGen[v] != gen {
				st.clearRow(v)
				pending++
			}
			vrow, vpar := dp[v], par[v]
			vmin, vmax := int(rowMin[v]), int(rowMax[v])
			for k := umin; k <= umax; k++ {
				rk := row[k]
				if rk == negInf {
					continue
				}
				kv := k + wv
				cand := rk + vcv
				switch {
				case kv > vmax:
					// The cell is above the row's band, hence logically
					// -Inf: the write condition is cand > -Inf (false for
					// NaN and -Inf, exactly as a compare against a stored
					// -Inf cell). Skipped-over cells become explicit -Inf
					// so band scans read defined values; par gap cells
					// stay unwritten — they are only read behind dp cells
					// that hold finite path values. A first write into an
					// empty row opens the band at kv and fills nothing.
					if cand > negInf {
						if vmax < 0 {
							vmin = kv
						} else {
							copy(vrow[vmax+1:kv], st.infRow)
						}
						vrow[kv] = cand
						vpar[kv] = u
						vmax = kv
					}
				case kv < vmin:
					// Below the band: same rule, gap-filling up to the old
					// low-water mark.
					if cand > negInf {
						copy(vrow[kv+1:vmin], st.infRow)
						vrow[kv] = cand
						vpar[kv] = u
						vmin = kv
					}
				case cand > vrow[kv]:
					vrow[kv] = cand
					vpar[kv] = u
				}
			}
			rowMin[v], rowMax[v] = int32(vmin), int32(vmax)
		}
	}
	st.res.Search.DPRows += len(st.touched)
	st.res.Search.DPCells += cells
}

// resizeSlice returns buf with length n, reusing its storage when large
// enough. Contents are unspecified; callers initialize what they read.
func resizeSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// clearRow logically resets a generation-stale row, records it as touched
// (and as an end when its deadline anchor is final) and queues it on the
// frontier: an empty band (rowMin 0, rowMax -1) marks every cell -Inf
// without storing a single one — readers are bounded by the band, and
// writes outside it gap-fill from the infRow template (see runDP's inner
// loop).
func (st *distState) clearRow(id taskgraph.NodeID) {
	st.rowMin[id], st.rowMax[id] = 0, -1
	st.rowGen[id] = st.gen
	st.touched = append(st.touched, id)
	if st.succPending[id] == 0 {
		st.ends = append(st.ends, id)
	}
	p := st.topoIdx[id]
	st.frontier[p>>6] |= 1 << (uint(p) & 63)
}

// backtrackInto reconstructs the path ending at (end, k) from the par
// table, appending into dst (reused across evaluations).
func (st *distState) backtrackInto(dst []taskgraph.NodeID, end taskgraph.NodeID, k int) []taskgraph.NodeID {
	first := len(dst)
	id := end
	for id != taskgraph.None {
		dst = append(dst, id)
		prev := st.par[id][k]
		if st.vc[id] > 0 {
			k--
		}
		id = prev
	}
	for i, j := first, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// slice distributes the critical path's end-to-end deadline over the
// path's nodes as consecutive, non-overlapping windows. Windowed nodes get
// Metric.Window(c', R); negligible nodes get zero-width windows at the
// running position. When the metric sizes windows with different costs than
// it ranks paths (WindowCoster), the ratio is recomputed over the chosen
// path with the window costs.
//
// Under overload a metric may emit negative windows. Those are clamped at
// zero, and the surviving positive windows are then renormalized so that the
// windows still sum exactly to the path's available span (deadline anchor
// minus release anchor) — otherwise later anchors would inherit absolute
// deadlines inflated past the path's end-to-end deadline. When the span
// itself is non-positive (the anchors already leave no room), every window
// collapses to zero and all absolute deadlines sit at the release anchor.
func (st *distState) slice(path []taskgraph.NodeID, ratio float64) {
	t, _ := st.releaseAnchor(path[0])
	dl, _ := st.deadlineAnchor(path[len(path)-1])
	span := dl - t
	vc := st.vc
	if &st.vcWin[0] != &st.vc[0] {
		vc = st.vcWin
		sum, count := 0.0, 0
		for _, id := range path {
			if vc[id] > 0 {
				sum += vc[id]
				count++
			}
		}
		ratio = st.metric.Ratio(span, sum, count)
	}

	// First pass: raw windows, clamping negative (or undefined) ones at
	// zero into a scratch buffer.
	win := st.winbuf[:0]
	clamped := false
	wsum := 0.0
	for _, id := range path {
		w := 0.0
		if vc[id] > 0 {
			w = st.metric.Window(vc[id], ratio)
			if w < 0 || ratio == posInf || w != w {
				w = 0
				clamped = true
			}
			wsum += w
		}
		win = append(win, w)
	}
	st.winbuf = win

	// Clamping removed the negative contributions, so the positive windows
	// now overshoot the span; restore the sum-to-span invariant. Feasible
	// paths (no clamping) are left bit-for-bit unchanged.
	if clamped {
		switch {
		case span <= 0:
			for i := range win {
				win[i] = 0
			}
		case wsum > 0:
			scale := span / wsum
			for i, id := range path {
				if vc[id] > 0 {
					win[i] *= scale
				}
			}
		default:
			// Every window was clamped but room remains: fall back to a
			// split proportional to the window-sizing costs.
			vsum := 0.0
			for _, id := range path {
				if vc[id] > 0 {
					vsum += vc[id]
				}
			}
			if vsum > 0 {
				for i, id := range path {
					if vc[id] > 0 {
						win[i] = span * vc[id] / vsum
					}
				}
			}
		}
	}

	for i, id := range path {
		st.res.Release[id] = t
		if vc[id] > 0 {
			st.res.Relative[id] = win[i]
			st.res.Windowed[id] = true
			t += win[i]
		} else {
			st.res.Relative[id] = 0
		}
		st.res.Absolute[id] = t
		st.assigned[id] = true
		st.assignedBits[id>>6] |= 1 << (uint(id) & 63)
		st.startBits[id>>6] &^= 1 << (uint(id) & 63)
	}
	st.unassigned -= len(path)

	// Every window of the path is now in place. An unassigned successor
	// whose last unassigned predecessor was just sliced becomes a start
	// with its final release anchor; an unassigned predecessor loses the
	// sliced node from its live successor list and, once its last
	// successor is sliced, gets its final deadline anchor.
	for _, id := range path {
		for _, v := range st.succAdj[st.succOff[id]:st.succOff[id+1]] {
			st.pending[v]--
			if st.pending[v] == 0 && !st.assigned[v] {
				st.relVal[v], _ = st.releaseAnchorSlow(v)
				st.startBits[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		for _, p := range st.predAdj[st.predOff[id]:st.predOff[id+1]] {
			st.succPending[p]--
			if st.assigned[p] {
				continue
			}
			if st.succPending[p] == 0 {
				st.dlVal[p], _ = st.deadlineAnchorSlow(p)
			}
			// Unlink stably: the DP's arc order decides ties.
			lo, hi := st.succOff[p], st.liveEnd[p]
			live := st.liveAdj[lo:hi]
			i := slices.Index(live, id)
			copy(live[i:], live[i+1:])
			st.liveEnd[p] = hi - 1
		}
	}
}
