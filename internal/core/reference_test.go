package core

import (
	"fmt"
	"math"

	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// This file freezes the pre-optimization distributor as a test-only
// reference. It is the straightforward transcription of Figure 1: every
// slicing iteration re-runs a full-graph DP from every start candidate
// (walking the entire TopoOrder each time), then re-runs the winning DP a
// second time to backtrack the chosen path. The optimized distributor in
// distribute.go must produce bit-for-bit identical Results; see
// equivalence_test.go.

// referenceDistribute mirrors Distributor.Distribute on the frozen
// implementation.
func referenceDistribute(d Distributor, g *taskgraph.Graph, sys *platform.System) (*Result, error) {
	if d.Metric == nil || d.Estimator == nil {
		return nil, ErrNilStrategy
	}
	for _, out := range g.Outputs() {
		if g.Node(out).EndToEnd <= 0 {
			return nil, fmt.Errorf("subtask %q: %w", g.Node(out).Name, ErrNoDeadline)
		}
	}

	est := d.Estimator.Estimate(nil, g, sys)
	vc := d.Metric.VirtualCosts(nil, g, sys, est)
	vcWin := vc
	if wc, ok := d.Metric.(WindowCoster); ok {
		vcWin = wc.WindowCosts(nil, g, sys, est)
	}

	n := g.NumNodes()
	res := &Result{
		Release:       make([]float64, n),
		Relative:      make([]float64, n),
		Absolute:      make([]float64, n),
		Windowed:      make([]bool, n),
		EstimatedComm: est,
		Metric:        d.Metric.Name(),
		Estimator:     d.Estimator.Name(),
	}

	st := &refState{
		g:        g,
		sys:      sys,
		metric:   d.Metric,
		vc:       vc,
		vcWin:    vcWin,
		assigned: make([]bool, n),
		res:      res,
	}
	st.alloc()

	for remaining := n; remaining > 0; {
		path, ratio, err := st.findCriticalPath()
		if err != nil {
			return nil, err
		}
		st.slice(path, ratio)
		remaining -= len(path)
		res.Paths = append(res.Paths, path)
	}
	return res, nil
}

// refState is the frozen per-distribution working set.
type refState struct {
	g      *taskgraph.Graph
	sys    *platform.System
	metric Metric
	vc     []float64
	vcWin  []float64

	assigned []bool
	res      *Result

	dp      [][]float64
	par     [][]taskgraph.NodeID
	touched []taskgraph.NodeID

	winbuf []float64
}

func (st *refState) alloc() {
	n := st.g.NumNodes()
	maxLen := int(st.g.LongestPath(func(taskgraph.Node) float64 { return 1 }))
	width := maxLen + 1
	st.dp = make([][]float64, n)
	st.par = make([][]taskgraph.NodeID, n)
	dpFlat := make([]float64, n*width)
	parFlat := make([]taskgraph.NodeID, n*width)
	for i := range dpFlat {
		dpFlat[i] = math.Inf(-1)
		parFlat[i] = taskgraph.None
	}
	for i := 0; i < n; i++ {
		st.dp[i] = dpFlat[i*width : (i+1)*width]
		st.par[i] = parFlat[i*width : (i+1)*width]
	}
}

func (st *refState) resetDP() {
	for _, id := range st.touched {
		row, prow := st.dp[id], st.par[id]
		for k := range row {
			row[k] = math.Inf(-1)
			prow[k] = taskgraph.None
		}
	}
	st.touched = st.touched[:0]
}

func (st *refState) releaseAnchor(id taskgraph.NodeID) (float64, bool) {
	preds := st.g.Pred(id)
	if len(preds) == 0 {
		return st.g.Node(id).Release, true
	}
	anchor := math.Inf(-1)
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

func (st *refState) deadlineAnchor(id taskgraph.NodeID) (float64, bool) {
	succs := st.g.Succ(id)
	if len(succs) == 0 {
		return st.g.Node(id).EndToEnd, true
	}
	anchor := math.Inf(1)
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

func (st *refState) findCriticalPath() ([]taskgraph.NodeID, float64, error) {
	type candidate struct {
		start, end taskgraph.NodeID
		k          int
		ratio      float64
	}
	best := candidate{start: taskgraph.None, ratio: math.Inf(1)}
	found := false

	starts := st.startCandidates()
	for _, s := range starts {
		relAnchor, _ := st.releaseAnchor(s)
		st.runDP(s)
		for _, id := range st.touched {
			dl, ok := st.deadlineAnchor(id)
			if !ok {
				continue
			}
			row := st.dp[id]
			for k := range row {
				if math.IsInf(row[k], -1) {
					continue
				}
				r := st.metric.Ratio(dl-relAnchor, row[k], k)
				if !found || r < best.ratio {
					best = candidate{start: s, end: id, k: k, ratio: r}
					found = true
				}
			}
		}
		st.resetDP()
	}
	if !found {
		return nil, 0, ErrNoCritical
	}

	st.runDP(best.start)
	path := st.backtrack(best.end, best.k)
	st.resetDP()
	return path, best.ratio, nil
}

func (st *refState) startCandidates() []taskgraph.NodeID {
	var out []taskgraph.NodeID
	for id := 0; id < st.g.NumNodes(); id++ {
		nid := taskgraph.NodeID(id)
		if st.assigned[nid] {
			continue
		}
		if _, ok := st.releaseAnchor(nid); ok {
			out = append(out, nid)
		}
	}
	return out
}

func (st *refState) runDP(s taskgraph.NodeID) {
	ws := 0
	if st.vc[s] > 0 {
		ws = 1
	}
	st.dp[s][ws] = st.vc[s]
	st.touched = append(st.touched, s)

	for _, u := range st.g.TopoOrder() {
		if st.assigned[u] {
			continue
		}
		row := st.dp[u]
		reached := false
		for k := range row {
			if !math.IsInf(row[k], -1) {
				reached = true
				break
			}
		}
		if !reached {
			continue
		}
		for _, v := range st.g.Succ(u) {
			if st.assigned[v] {
				continue
			}
			wv := 0
			if st.vc[v] > 0 {
				wv = 1
			}
			vrow, vpar := st.dp[v], st.par[v]
			vTouched := false
			for k := range row {
				if math.IsInf(row[k], -1) {
					continue
				}
				kv := k + wv
				if cand := row[k] + st.vc[v]; cand > vrow[kv] {
					if !vTouched && refRowUntouched(vrow) {
						st.touched = append(st.touched, v)
					}
					vTouched = true
					vrow[kv] = cand
					vpar[kv] = u
				}
			}
		}
	}
}

func refRowUntouched(row []float64) bool {
	for _, v := range row {
		if !math.IsInf(v, -1) {
			return false
		}
	}
	return true
}

func (st *refState) backtrack(end taskgraph.NodeID, k int) []taskgraph.NodeID {
	var rev []taskgraph.NodeID
	id := end
	for id != taskgraph.None {
		rev = append(rev, id)
		prev := st.par[id][k]
		if st.vc[id] > 0 {
			k--
		}
		id = prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (st *refState) slice(path []taskgraph.NodeID, ratio float64) {
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

	win := st.winbuf[:0]
	clamped := false
	wsum := 0.0
	for _, id := range path {
		w := 0.0
		if vc[id] > 0 {
			w = st.metric.Window(vc[id], ratio)
			if w < 0 || math.IsInf(ratio, 1) || math.IsNaN(w) {
				w = 0
				clamped = true
			}
			wsum += w
		}
		win = append(win, w)
	}
	st.winbuf = win

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
	}
}
