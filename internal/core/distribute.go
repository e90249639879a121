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

// Scratch owns the distributor's working set (DP row records and spill
// arena, the DP frontier, live successor lists, final anchors, candidate
// memos) so that batch callers can reuse it across Distribute calls
// instead of reallocating ~O(n·width) state per run. A Scratch may be
// carried across different graphs and strategies — every buffer is
// resized and re-stamped per run, and the lazy row-clearing generation
// never repeats a stamp still present in the rows (see nextGen), so stale
// rows from an earlier run are never read. Not safe for concurrent use;
// create one per goroutine.
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

	if sc == nil {
		sc = NewScratch()
	}
	st := &sc.st
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
	// end is the candidate's last node, as a topological position.
	end   int32
	k     int
	ratio float64
	// reachBits is the start's reachable set (through unassigned nodes) at
	// the time the candidate was computed, as a bitset over topological
	// positions, so the per-iteration validity check (is all of it still
	// unassigned?) is a word-AND sweep against the assigned bitset instead
	// of a per-node walk.
	reachBits []uint64
	// path is the backtracked node sequence of the best candidate, kept so a
	// winning memoized candidate can be sliced without re-running its DP
	// just to rebuild its rows.
	path []taskgraph.NodeID
}

// dpRow is one topological position's record: its DP row and its live
// successor range.
//
// The row holds the cells dp[k] (the maximum accumulated virtual cost over
// paths from the current start to the position's node containing k
// windowed nodes) and par[k] (the predecessor on that path, as a
// position; -1 at the start) for k in the band [min, max]. The cell at
// k == min is held inline in val and par; cells min < k <= max live in the
// distState's arena. Cells outside the band are logically -Inf and never
// stored. A row whose gen differs from the state's gen is logically empty
// (every cell -Inf), so starting a DP run is O(1).
//
// The node's unassigned successors are liveAdj[lo:hi] (see distState);
// only prepare and slice write lo and hi. The live list is empty exactly
// when every successor is assigned, which is when the node's deadline
// anchor is final.
//
// The record is 32 bytes, so a row's stamp, its usual only cell and its
// arc range share one cache line.
type dpRow struct {
	gen      uint32
	min, max int32
	par      int32
	val      float64
	lo, hi   int32
}

// distState is the per-distribution working set.
//
// The DP works in topological positions: position p is the node
// topo[p], and topoIdx[id] is node id's position. Every DP-side array
// (rows, the arena, the live successor lists, the frontier, reach
// and assigned bitsets) is indexed by position, so a frontier pop is the
// row itself. The rest (anchors, pending counts, the start set, the
// result) stays indexed by NodeID.
type distState struct {
	g      *taskgraph.Graph
	metric Metric
	vc     []float64

	// CSR adjacency of g, bound by prepare so slicing iterates flat arrays
	// instead of calling through the Graph API.
	succOff []int32
	succAdj []taskgraph.NodeID
	predOff []int32
	predAdj []taskgraph.NodeID

	// vcWin are the window-sizing costs (same slice as vc unless the
	// metric implements WindowCoster).
	vcWin []float64

	assigned []bool
	res      *Result

	// topo is the bound graph's topological order and topoIdx[id] the
	// position of id in it.
	topo    []taskgraph.NodeID
	topoIdx []int32
	// posOff/posAdj is the successor CSR renumbered into positions, in
	// original arc order, built once per graph.
	posOff []int32
	posAdj []int32
	// Live successor lists: liveAdj is a per-run copy of posAdj, and
	// position p's unassigned successors are liveAdj[rows[p].lo:rows[p].hi],
	// in original arc order. Each entry carries its successor's virtual
	// cost, so the DP's arc loop reads the position and the cost from one
	// place. slice unlinks each assigned node from its unassigned
	// predecessors' lists, so the arc loop never meets an assigned node.
	liveAdj []liveArc

	// DP storage, reused across runs: rows[p] is position p's row record
	// (see dpRow), and arenaVal/arenaPar hold its spilled cells at
	// p*width+k. width bounds k: the windowed-node count of any path is at
	// most the longest path's node count. The backings survive Scratch
	// reuse; nextGen never hands out a stamp still present in the rows, so
	// rows left over from an earlier distribution are stale by
	// construction.
	rows     []dpRow
	arenaVal []float64
	arenaPar []int32
	width    int
	gen      uint32
	// ends lists the deadline-anchored rows stamped by the current DP run,
	// in stamp order (the candidate enumeration order of the reference
	// search): the only rows evalStart scans.
	ends []int32
	// frontier is the current DP's stamped rows as a bitset over
	// positions: stamp sets bit p, and runDP walks the set bits upward
	// from the start, which visits the stamped rows in topological order.
	// After the run it holds the DP's reach; evalStart copies it into the
	// candidate and clears it, so the frontier is empty between runs.
	frontier []uint64
	// assignedBits mirrors assigned as a bitset over positions, so
	// reachFree is a word-AND sweep.
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
	pending     []int
	succPending []int
	startBits   []uint64
	unassigned  int

	// winbuf is slice's scratch buffer for the chosen path's raw windows,
	// reused across iterations.
	winbuf []float64
	// pathEnd records the end offset of each sliced path in the result's
	// pathBuf, in slicing order.
	pathEnd []int32

	// prevG memoizes the per-graph numbering (topoIdx, posOff/posAdj,
	// width) of the last prepared graph: batch callers run the same graph
	// through many strategies and system sizes before moving on, so it is
	// built once per graph. lpBuf is the longest-path pass's buffer.
	prevG *taskgraph.Graph
	lpBuf []int32
}

// prepare sizes the working set for the bound graph, reusing any buffers
// left by a previous distribution. Stale DP rows are handled by the
// generation stamp (nextGen); everything else is explicitly reset here.
func (st *distState) prepare() {
	n := st.g.NumNodes()
	st.succOff, st.succAdj = st.g.SuccCSR()
	st.predOff, st.predAdj = st.g.PredCSR()
	st.topo = st.g.TopoOrder()
	if st.g != st.prevG {
		st.number()
	}
	// Rows are cleared lazily on first touch (their gen stamps stay behind
	// the next run's gen), and arena cells are written before they are
	// read, so neither needs initializing.
	st.rows = resizeSlice(st.rows, n)
	for p := range st.rows {
		st.rows[p].lo, st.rows[p].hi = st.posOff[p], st.posOff[p+1]
	}
	if cells := n * st.width; cap(st.arenaVal) < cells {
		st.arenaVal = make([]float64, cells)
		st.arenaPar = make([]int32, cells)
	}
	words := (n + 63) / 64
	st.assignedBits = resizeSlice(st.assignedBits, words)
	clear(st.assignedBits)
	st.startBits = resizeSlice(st.startBits, words)
	clear(st.startBits)
	// A completed search leaves the frontier empty; clearing it here keeps
	// a Scratch reusable after a run that a recovered panic cut short.
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
	st.liveAdj = resizeSlice(st.liveAdj, len(st.posAdj))
	for i, v := range st.posAdj {
		st.liveAdj[i] = liveArc{cost: st.vc[st.topo[v]], to: v}
	}
	st.unassigned = n
	for i := 0; i < n; i++ {
		id := taskgraph.NodeID(i)
		st.pending[i] = int(st.predOff[i+1] - st.predOff[i])
		st.succPending[i] = int(st.succOff[i+1] - st.succOff[i])
		if st.pending[i] == 0 {
			st.relVal[i] = st.g.ReleaseOf(id)
			st.startBits[i>>6] |= 1 << (uint(i) & 63)
		}
		if st.succPending[i] == 0 {
			st.dlVal[i] = st.g.EndToEndOf(id)
		}
	}
}

// liveArc is one live successor: its position and its virtual cost.
type liveArc struct {
	cost float64
	to   int32
}

// number builds the bound graph's position numbering: topoIdx, the
// position-space successor lists (each in original arc order) and the DP
// row width.
func (st *distState) number() {
	n := st.g.NumNodes()
	st.topoIdx = resizeSlice(st.topoIdx, n)
	for p, id := range st.topo {
		st.topoIdx[id] = int32(p)
	}
	st.posOff = resizeSlice(st.posOff, n+1)
	st.posAdj = resizeSlice(st.posAdj, len(st.succAdj))
	off := int32(0)
	for p, id := range st.topo {
		st.posOff[p] = off
		for _, s := range st.succAdj[st.succOff[id]:st.succOff[id+1]] {
			st.posAdj[off] = st.topoIdx[s]
			off++
		}
	}
	st.posOff[n] = off
	// The windowed-node count of any path is bounded by the longest path's
	// node count, which is far smaller than the node count for layered
	// graphs; sizing rows accordingly keeps the arena small.
	st.width = st.longestPathNodes() + 1
	st.prevG = st.g
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
// result or cost slices between runs (prevG is kept — it backs the
// numbering memo and only ever pins one graph).
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
// the minimum — exactly the reference search's choice. The starts are the
// unassigned nodes whose predecessors are all assigned: the set bits of
// startBits, which slice maintains via pending-predecessor counts, read
// in ID order.
func (st *distState) findCriticalPath() (*startCand, error) {
	var best *startCand
	for w, word := range st.startBits {
		for ; word != 0; word &= word - 1 {
			s := taskgraph.NodeID(w<<6 | bits.TrailingZeros64(word))
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
	}
	if best == nil {
		return nil, ErrNoCritical
	}

	// The winner's path was backtracked when its candidate was evaluated,
	// so no DP rows need rebuilding here. The caller copies best.path out
	// of the memo's reused buffer before the memo can be overwritten.
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
	for _, p := range st.ends {
		row := &st.rows[p]
		span := st.dlVal[st.topo[p]] - relAnchor
		// Cells outside [min, max] are logically -Inf and never contribute,
		// so the scan covers only the band: the inline cell, then the
		// spilled ones.
		lo, hi := int(row.min), int(row.max)
		rk := row.val
		for k := lo; k <= hi; k++ {
			if k > lo {
				rk = st.arenaVal[int(p)*st.width+k]
			}
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
				c.end, c.k, c.ratio = p, k, r
				c.found = true
			}
		}
	}
	// The frontier now holds exactly the DP's reach: runDP processes every
	// row it stamps (see there).
	c.reachBits = resizeSlice(c.reachBits, len(st.frontier))
	copy(c.reachBits, st.frontier)
	clear(st.frontier)
	// Backtrack the winning (end, k) now, while this start's rows are
	// still in place: the memoized candidate then carries its own path and
	// never needs them again.
	c.path = c.path[:0]
	if c.found {
		c.path = st.backtrackInto(c.path, c.end, c.k)
	}
}

// dpProbe, when set, sees the state at the end of every DP run, while the
// run's rows and reach are in place. Only tests set it.
var dpProbe func(st *distState)

// runDP fills the rows with the maximum accumulated virtual cost of every
// path from s through unassigned nodes, bucketed by windowed-node count.
//
// Reach is the DP's own row stamp: stamp runs on every unassigned
// successor of a processed row, so rows[p].gen == gen exactly when p is
// reached from s through unassigned nodes. stamp also sets p's bit in
// the frontier, and the loop moves to the next set bit above the row just
// processed until every stamped row is done (pending counts the stamped
// rows not yet processed). A successor sits later in topological order
// than its predecessor, so every bit set during the run lies above the
// current row, and the loop visits the stamped rows in topological order:
// every row is processed after all writes into it, and the frontier ends
// up holding exactly the reachable set.
func (st *distState) runDP(s taskgraph.NodeID) {
	st.nextGen()
	st.res.Search.DPRuns++

	u := st.topoIdx[s]
	vcs := st.vc[s]
	ws := int32(0)
	if vcs > 0 {
		ws = 1
	}
	rows, frontier := st.rows, st.frontier
	gen, ends := st.gen, st.ends[:0]
	r := &rows[u]
	ends = stamp(r, u, gen, frontier, ends)
	r.min, r.max, r.val, r.par = ws, ws, vcs, -1

	liveAdj := st.liveAdj
	arena, width := st.arenaVal, st.width
	pending, nrows, cells := 1, 0, 0
	for {
		pending--
		nrows++
		// By topological order every write into row u has happened, so
		// [min, max] bounds its populated cells.
		ru := &rows[u]
		umin, umax := int(ru.min), int(ru.max)
		uval := ru.val
		succs := liveAdj[ru.lo:ru.hi]
		cells += (umax - umin + 1) * len(succs)
		for _, arc := range succs {
			v, vcv := arc.to, arc.cost
			wv := 0
			if vcv > 0 {
				wv = 1
			}
			rv := &rows[v]
			if rv.gen != gen {
				ends = stamp(rv, v, gen, frontier, ends)
				pending++
			}
			// The inline cell, then the spilled ones. Opening an empty row
			// and meeting the inline cell are handled here; every other
			// write goes to relaxSpill. A write into an empty row compares
			// against -Inf (false for NaN and -Inf, exactly as a compare
			// against a stored -Inf cell) and opens the band at kv; an
			// equal value never replaces a parent.
			rk := uval
			for k := umin; k <= umax; k++ {
				if k > umin {
					rk = arena[int(u)*width+k]
				}
				if rk == negInf {
					continue
				}
				kv, cand := k+wv, rk+vcv
				switch {
				case rv.max < 0:
					if cand > negInf {
						rv.min, rv.max, rv.val, rv.par = int32(kv), int32(kv), cand, u
					}
				case kv == int(rv.min):
					if cand > rv.val {
						rv.val, rv.par = cand, u
					}
				default:
					st.relaxSpill(rv, v, kv, cand, u)
				}
			}
		}
		if pending == 0 {
			break
		}
		w := int(u) >> 6
		word := frontier[w] &^ (2<<(uint(u)&63) - 1)
		for word == 0 {
			w++
			word = frontier[w]
		}
		u = int32(w<<6 | bits.TrailingZeros64(word))
	}
	st.ends = ends
	st.res.Search.DPRows += nrows
	st.res.Search.DPCells += cells
	if dpProbe != nil {
		dpProbe(st)
	}
}

// relaxSpill offers cell kv of the non-empty row v (record rv) the value
// cand reached through row u, for a kv other than the inline cell's. A
// write outside the band compares against -Inf, like a write into an
// empty row; the skipped-over cells between the band and kv become
// explicit -Inf, so band scans read defined values (their par stays
// unwritten: it is only read behind a cell holding a path value). A write
// below the band moves the inline cell into the arena first. Inside the
// band the compare is strict, so an equal value keeps the earlier parent.
func (st *distState) relaxSpill(rv *dpRow, v int32, kv int, cand float64, u int32) {
	vmin, vmax := int(rv.min), int(rv.max)
	base := int(v) * st.width
	val, par := st.arenaVal[base:base+st.width], st.arenaPar[base:base+st.width]
	switch {
	case kv > vmax:
		if cand > negInf {
			fillNegInf(val[vmax+1 : kv])
			val[kv], par[kv] = cand, u
			rv.max = int32(kv)
		}
	case kv < vmin:
		if cand > negInf {
			val[vmin], par[vmin] = rv.val, rv.par
			fillNegInf(val[kv+1 : vmin])
			rv.min, rv.val, rv.par = int32(kv), cand, u
		}
	case cand > val[kv]:
		val[kv], par[kv] = cand, u
	}
}

// fillNegInf sets every cell of gap to -Inf.
func fillNegInf(gap []float64) {
	for i := range gap {
		gap[i] = negInf
	}
}

// resizeSlice returns buf with length n, reusing its storage when large
// enough. Contents are unspecified; callers initialize what they read.
func resizeSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// nextGen starts a DP run's generation. When the counter wraps, every
// stamp in the row backing (its spare capacity included, which a later
// graph may reslice) is reset to 0 and counting restarts at 1, so no
// stale row can ever carry the current generation.
func (st *distState) nextGen() {
	st.gen++
	if st.gen == 0 {
		rows := st.rows[:cap(st.rows)]
		for i := range rows {
			rows[i].gen = 0
		}
		st.gen = 1
	}
}

// stamp logically resets row p (record r) for the DP run gen, appends p
// to ends when its deadline anchor is final (its live list is empty), and
// queues it on the frontier. An empty band (min 0, max -1) marks every
// cell -Inf without storing a single one: readers are bounded by the
// band, and writes outside it gap-fill (see relaxSpill).
func stamp(r *dpRow, p int32, gen uint32, frontier []uint64, ends []int32) []int32 {
	r.gen, r.min, r.max = gen, 0, -1
	if r.lo == r.hi {
		ends = append(ends, p)
	}
	frontier[p>>6] |= 1 << (uint(p) & 63)
	return ends
}

// cell returns row p's cell k and its parent position, from the inline
// cell or the arena. k must lie in the row's band.
func (st *distState) cell(p int32, k int) (float64, int32) {
	r := &st.rows[p]
	if k == int(r.min) {
		return r.val, r.par
	}
	i := int(p)*st.width + k
	return st.arenaVal[i], st.arenaPar[i]
}

// backtrackInto reconstructs the path ending at (end, k) from the rows'
// parents, appending its node IDs into dst (reused across evaluations).
func (st *distState) backtrackInto(dst []taskgraph.NodeID, end int32, k int) []taskgraph.NodeID {
	first := len(dst)
	for p := end; p >= 0; {
		id := st.topo[p]
		dst = append(dst, id)
		_, prev := st.cell(p, k)
		if st.vc[id] > 0 {
			k--
		}
		p = prev
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
		p := st.topoIdx[id]
		st.assignedBits[p>>6] |= 1 << (uint(p) & 63)
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
		pos := st.topoIdx[id]
		for _, p := range st.predAdj[st.predOff[id]:st.predOff[id+1]] {
			st.succPending[p]--
			if st.assigned[p] {
				continue
			}
			if st.succPending[p] == 0 {
				st.dlVal[p], _ = st.deadlineAnchorSlow(p)
			}
			// Unlink stably: the DP's arc order decides ties.
			r := &st.rows[st.topoIdx[p]]
			live := st.liveAdj[r.lo:r.hi]
			i := slices.IndexFunc(live, func(a liveArc) bool { return a.to == pos })
			copy(live[i:], live[i+1:])
			r.hi--
		}
	}
}
