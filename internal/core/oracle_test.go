package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// This file checks the critical-path search against an oracle that shares
// none of its code: for every slicing round, list every path a round may
// slice and require that the sliced path's ratio is the minimum of theirs.
// The round's state is rebuilt from the Result alone (Paths, Release and
// Absolute), so neither the DP nor the candidate memo is trusted.

// roundCheck is one slicing round as the oracle saw it.
type roundCheck struct {
	// sliced is the ratio of the path the distributor sliced, and min
	// the least ratio over every listed path.
	sliced, min float64
	// paths counts the listed paths; negSpan reports that some listed
	// path has a negative span (its deadline anchor before its release
	// anchor).
	paths   int
	negSpan bool
}

// criticalPathRounds rebuilds each slicing round of res and returns, per
// round, the sliced path's ratio beside the minimum over every path from
// a start to an end through unassigned nodes. A start is an unassigned
// node whose predecessors are all assigned (its release anchor is their
// latest absolute deadline, or its own release at an input); an end is
// one whose successors are all assigned (its deadline anchor is their
// earliest release, or its end-to-end deadline at an output). A path's
// ratio is the metric's Ratio over its span, the sum of its virtual
// costs added from the start, and the count of its positive ones: the
// quantities Figure 1 ranks paths by. An error names a sliced path that
// is not such a path.
func criticalPathRounds(g *taskgraph.Graph, d Distributor, sys *platform.System, res *Result) ([]roundCheck, error) {
	vc := d.Metric.VirtualCosts(nil, g, sys, d.Estimator.Estimate(nil, g, sys))
	n := g.NumNodes()
	assigned := make([]bool, n)
	release := func(id taskgraph.NodeID) (float64, bool) {
		preds := g.Pred(id)
		if len(preds) == 0 {
			return g.Node(id).Release, true
		}
		anchor := math.Inf(-1)
		for _, p := range preds {
			if !assigned[p] {
				return 0, false
			}
			anchor = math.Max(anchor, res.Absolute[p])
		}
		return anchor, true
	}
	deadline := func(id taskgraph.NodeID) (float64, bool) {
		succs := g.Succ(id)
		if len(succs) == 0 {
			return g.Node(id).EndToEnd, true
		}
		anchor := math.Inf(1)
		for _, s := range succs {
			if !assigned[s] {
				return 0, false
			}
			anchor = math.Min(anchor, res.Release[s])
		}
		return anchor, true
	}
	rounds := make([]roundCheck, 0, len(res.Paths))
	for i, path := range res.Paths {
		rc := roundCheck{min: math.Inf(1)}
		// List every path by depth-first search from each start.
		var walk func(u taskgraph.NodeID, rel, sum float64, k int)
		walk = func(u taskgraph.NodeID, rel, sum float64, k int) {
			if vc[u] > 0 {
				k++
			}
			if dl, ok := deadline(u); ok {
				rc.paths++
				rc.negSpan = rc.negSpan || dl-rel < 0
				rc.min = math.Min(rc.min, d.Metric.Ratio(dl-rel, sum, k))
			}
			for _, v := range g.Succ(u) {
				if !assigned[v] {
					walk(v, rel, sum+vc[v], k)
				}
			}
		}
		for s := 0; s < n; s++ {
			id := taskgraph.NodeID(s)
			if rel, ok := release(id); ok && !assigned[id] {
				walk(id, rel, vc[id], 0)
			}
		}

		// The sliced path must be one of those listed.
		rel, okStart := release(path[0])
		dl, okEnd := deadline(path[len(path)-1])
		if !okStart || !okEnd {
			return rounds, fmt.Errorf("round %d: sliced path %v does not run from a start to an end", i, path)
		}
		sum, k := 0.0, 0
		for j, id := range path {
			if assigned[id] || j > 0 && !slices.Contains(g.Succ(path[j-1]), id) {
				return rounds, fmt.Errorf("round %d: sliced path %v is not a path through unassigned nodes", i, path)
			}
			sum += vc[id]
			if vc[id] > 0 {
				k++
			}
		}
		rc.sliced = d.Metric.Ratio(dl-rel, sum, k)
		rounds = append(rounds, rc)
		for _, id := range path {
			assigned[id] = true
		}
	}
	return rounds, nil
}

// normNegSpanExempt reports whether a round lies outside the relation the
// DP is exact for. The DP keeps, per end and windowed-node count, the
// path of largest cost sum. PURE's and ADAPT's (span − ΣC)/k fall as that
// sum grows, and so does NORM's (span − ΣC)/ΣC on a non-negative span; on
// a negative span NORM's rises with it, the smallest sum ranks lowest,
// and the DP can miss it (see TestNORMNegativeSpanWitness).
func normNegSpanExempt(m Metric, rc roundCheck) bool {
	_, norm := m.(normMetric)
	return norm && rc.negSpan
}

// oracleGraph draws a random graph of 12–18 subtasks under the HDET
// scenario. With tighten set, every output's end-to-end deadline is
// redrawn from [30, 126], below what most paths need, so later rounds
// meet overload and negative spans. The generator links only adjacent
// levels, so every path to a node holds the same number of subtasks and
// each DP row one cell; with skip set, about a third of the non-output
// subtasks also get an arc to a random later subtask, so paths to one
// node differ in length and the DP's rows widen.
func oracleGraph(t testing.TB, seed uint64, tighten, skip bool) *taskgraph.Graph {
	t.Helper()
	cfg := generator.Default(generator.HDET)
	cfg.MinSubtasks, cfg.MaxSubtasks = 12, 18
	src := rng.New(seed)
	g, err := generator.Random(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if !tighten && !skip {
		return g
	}
	b := taskgraph.NewBuilder()
	ids := make([]taskgraph.NodeID, g.NumNodes())
	var subtasks []taskgraph.NodeID
	for _, nd := range g.NodesView() {
		if nd.Kind != taskgraph.KindSubtask {
			continue
		}
		ids[nd.ID] = b.AddSubtask(nd.Name, nd.Cost)
		subtasks = append(subtasks, nd.ID)
		if nd.Release != 0 {
			b.SetRelease(ids[nd.ID], nd.Release)
		}
		if nd.EndToEnd != 0 {
			dl := nd.EndToEnd
			if tighten {
				dl = src.Float64In(30, 126)
			}
			b.SetEndToEnd(ids[nd.ID], dl)
		}
	}
	arcs := make(map[[2]taskgraph.NodeID]bool)
	for _, m := range g.NodesView() {
		if m.Kind == taskgraph.KindMessage {
			u, v := g.Pred(m.ID)[0], g.Succ(m.ID)[0]
			b.Connect(ids[u], ids[v], m.Size)
			arcs[[2]taskgraph.NodeID{u, v}] = true
		}
	}
	if skip {
		// The generator adds subtasks level by level, so a subtask's
		// later ones in ID order lie below it and an arc to one keeps
		// the graph acyclic; an output keeps no successor.
		for i, u := range subtasks {
			if g.OutDegree(u) == 0 || i+1 == len(subtasks) || src.IntN(3) != 0 {
				continue
			}
			v := subtasks[src.IntIn(i+1, len(subtasks)-1)]
			if !arcs[[2]taskgraph.NodeID{u, v}] {
				b.Connect(ids[u], ids[v], src.Float64In(0, 2*cfg.MeanMessageSize()))
				arcs[[2]taskgraph.NodeID{u, v}] = true
			}
		}
	}
	if g, err = b.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleMetrics and oracleEstimators span the rankings the oracle covers:
// PURE and ADAPT rank by (span − ΣC)/k, NORM by (span − ΣC)/ΣC; CCAA
// gives messages virtual costs of their own, CCNE none.
var (
	oracleMetrics    = []Metric{PURE(), ADAPT(1.25), NORM()}
	oracleEstimators = []CommEstimator{CCNE(), CCAA()}
)

// oracleTally counts the rounds the oracle checked: those at the
// minimum, those among them with a negative span, and NORM's
// negative-span rounds off the minimum, which it exempts.
type oracleTally struct{ atMin, negSpan, gaps int }

// checkCriticalPathIsMinimum distributes g and fails t on any round whose
// sliced ratio is not the minimum, NORM's negative-span rounds aside, and
// adds the rounds it checked to tally.
func checkCriticalPathIsMinimum(t testing.TB, g *taskgraph.Graph, d Distributor, sys *platform.System, tally *oracleTally) {
	t.Helper()
	res, err := d.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := criticalPathRounds(g, d, sys, res)
	if err != nil {
		t.Fatalf("%s/%s: %v", d.Metric.Name(), d.Estimator.Name(), err)
	}
	for i, rc := range rounds {
		switch {
		case rc.sliced == rc.min:
			tally.atMin++
			if rc.negSpan {
				tally.negSpan++
			}
		case normNegSpanExempt(d.Metric, rc):
			tally.gaps++
		default:
			t.Fatalf("%s/%s round %d: sliced ratio %v, but a path has %v (%d paths listed)",
				d.Metric.Name(), d.Estimator.Name(), i, rc.sliced, rc.min, rc.paths)
		}
	}
}

// TestCriticalPathIsMinimum runs the path-enumeration oracle over random
// 12–18-subtask graphs on 3 processors, with the generator's deadlines
// and with tightened ones, with and without skip arcs.
func TestCriticalPathIsMinimum(t *testing.T) {
	plat := sys(t, 3)
	seeds := uint64(500)
	if testing.Short() {
		seeds = 50
	}
	var tally oracleTally
	for _, tighten := range []bool{false, true} {
		for _, skip := range []bool{false, true} {
			for seed := uint64(1); seed <= seeds; seed++ {
				g := oracleGraph(t, seed, tighten, skip)
				for _, m := range oracleMetrics {
					for _, e := range oracleEstimators {
						checkCriticalPathIsMinimum(t, g, Distributor{Metric: m, Estimator: e}, plat, &tally)
					}
				}
			}
		}
	}
	t.Logf("%d rounds at the minimum, %d of them with a negative span; %d NORM negative-span rounds off it",
		tally.atMin, tally.negSpan, tally.gaps)
	if tally.negSpan == 0 {
		t.Fatal("no negative-span round checked")
	}
}

// FuzzCriticalPathIsMinimum runs the same oracle over any seed, metric,
// estimator, deadline rule, arc set and platform size.
func FuzzCriticalPathIsMinimum(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), false, false, uint8(3))
	f.Add(uint64(9), uint8(1), uint8(1), true, false, uint8(3))
	f.Add(uint64(23), uint8(2), uint8(1), true, true, uint8(1))
	f.Add(uint64(5), uint8(2), uint8(0), false, true, uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, metric, est uint8, tighten, skip bool, procs uint8) {
		d := Distributor{
			Metric:    oracleMetrics[int(metric)%len(oracleMetrics)],
			Estimator: oracleEstimators[int(est)%len(oracleEstimators)],
		}
		checkCriticalPathIsMinimum(t, oracleGraph(t, seed, tighten, skip), d, sys(t, 1+int(procs)%16), &oracleTally{})
	})
}

// diamond builds s → {a, b} → e: subtask costs 1, ca, cb and 1, unit
// messages, s released at release and e due at deadline.
func diamond(t *testing.T, ca, cb, release, deadline float64) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder()
	s := b.AddSubtask("s", 1)
	a := b.AddSubtask("a", ca)
	c := b.AddSubtask("b", cb)
	e := b.AddSubtask("e", 1)
	b.Connect(s, a, 1)
	b.Connect(s, c, 1)
	b.Connect(a, e, 1)
	b.Connect(c, e, 1)
	b.SetRelease(s, release)
	b.SetEndToEnd(e, deadline)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNORMOverloadIsMinimum: hand-built overloads under NORM whose spans
// stay positive. (span − ΣC)/ΣC = span/ΣC − 1 then still falls as ΣC
// grows, so the path of largest sum the DP keeps is the minimum even when
// the span is shorter than the work.
func TestNORMOverloadIsMinimum(t *testing.T) {
	for _, tc := range []struct {
		ca, cb, release, deadline float64
	}{
		{1, 10, 0, 5},    // span 5 below both branches' work
		{10, 1, 0, 13},   // below the heavy branch only
		{10, 10, 3, 4},   // a tie, span 1
		{1, 40, 20, 21},  // released late, span 1
		{5, 6, 0, 1e-9},  // span all but zero
		{30, 2, 0, 31.5}, // heavy branch above the span, light one below
	} {
		g := diamond(t, tc.ca, tc.cb, tc.release, tc.deadline)
		for _, e := range oracleEstimators {
			var tally oracleTally
			if checkCriticalPathIsMinimum(t, g, Distributor{Metric: NORM(), Estimator: e}, sys(t, 2), &tally); tally.atMin == 0 {
				t.Fatalf("%+v: no round checked", tc)
			}
		}
	}
}

// TestNORMNegativeSpanWitness pins the case the oracle exempts. The
// diamond's start is released at 10 and its end due at 5, so every path's
// span is −5. Both branches hold three windowed subtasks; the DP keeps
// the heavier one, ΣC = 12, ratio (−5 − 12)/12 ≈ −1.42, while the light
// branch, ΣC = 3, ranks lower at (−5 − 3)/3 ≈ −2.67. NORM's ratio rises
// with ΣC on a negative span, so largest-sum-per-count is not its
// minimum there. The paper defines NORM for feasible spans; a mended
// search would flip this test to assert the minimum.
func TestNORMNegativeSpanWitness(t *testing.T) {
	g := diamond(t, 1, 10, 10, 5)
	d := Distributor{Metric: NORM(), Estimator: CCNE()}
	res, err := d.Distribute(g, sys(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := criticalPathRounds(g, d, sys(t, 2), res)
	if err != nil {
		t.Fatal(err)
	}
	first := rounds[0]
	if !first.negSpan || first.sliced != -17.0/12 || first.min != -8.0/3 {
		t.Fatalf("first round: sliced %v, minimum %v, negative span %v; want -17/12, -8/3, true",
			first.sliced, first.min, first.negSpan)
	}
	if !normNegSpanExempt(d.Metric, first) {
		t.Fatal("the witness round is not exempt")
	}
}
