package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// incrementalGraphs is the shape battery of FuzzDistributeMatchesReference
// (every structured family, the paper's random workload) plus the
// diamond lattice, whose equal-ratio branches stress tie-breaking.
func incrementalGraphs(t *testing.T, seed uint64) map[string]*taskgraph.Graph {
	t.Helper()
	cfg := generator.Default(generator.MDET)
	out := map[string]*taskgraph.Graph{"diamond": diamondLattice(t, seed)}
	g, err := generator.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	out["random"] = g
	for _, shape := range []generator.Shape{
		generator.ShapeChain, generator.ShapeInTree, generator.ShapeOutTree,
		generator.ShapeForkJoin, generator.ShapeLayered,
	} {
		g, err := generator.Structured(generator.StructuredConfig{
			Workload: cfg, Shape: shape, Depth: 2 + int(seed)%4, Width: 1 + int(seed)%3,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprint(shape)] = g
	}
	return out
}

// checkIncremental fails the test unless the state that slice keeps up to
// date matches a recomputation from the assignment state: for every
// unassigned node, the final anchors equal the slow anchors, the live
// successor list (kept in topological positions) is the original list
// filtered by !assigned in original order (so it is empty exactly when
// the deadline anchor is final, which is how the DP spots ends), and the
// start bit is set exactly when every predecessor is assigned. The DP frontier must be
// empty between runs.
//
// In graphs built by taskgraph.Builder every arc runs through a message
// node with one predecessor and one successor, so slice only ever unlinks
// from one-entry lists and settles one-input anchors; the checks pin the
// general rule all the same.
func checkIncremental(t *testing.T, st *distState, round int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range st.g.NumNodes() {
		id := taskgraph.NodeID(i)
		start := st.startBits[i>>6]&(1<<(uint(i)&63)) != 0
		if st.assigned[id] {
			if start {
				t.Fatalf("round %d: assigned node %d still marked as a start", round, id)
			}
			continue
		}
		rel, relOK := st.releaseAnchor(id)
		wantRel, wantRelOK := st.releaseAnchorSlow(id)
		if relOK != wantRelOK || (relOK && !same(rel, wantRel)) {
			t.Fatalf("round %d: release anchor of %d = (%v, %v), want (%v, %v)", round, id, rel, relOK, wantRel, wantRelOK)
		}
		dl, dlOK := st.deadlineAnchor(id)
		wantDl, wantDlOK := st.deadlineAnchorSlow(id)
		if dlOK != wantDlOK || (dlOK && !same(dl, wantDl)) {
			t.Fatalf("round %d: deadline anchor of %d = (%v, %v), want (%v, %v)", round, id, dl, dlOK, wantDl, wantDlOK)
		}
		var live []taskgraph.NodeID
		for _, v := range st.succAdj[st.succOff[id]:st.succOff[id+1]] {
			if !st.assigned[v] {
				live = append(live, v)
			}
		}
		r := st.rows[st.topoIdx[id]]
		var got []taskgraph.NodeID
		for _, a := range st.liveAdj[r.lo:r.hi] {
			got = append(got, st.topo[a.to])
		}
		if !slices.Equal(got, live) {
			t.Fatalf("round %d: live successors of %d = %v, want %v", round, id, got, live)
		}
		if start != wantRelOK {
			t.Fatalf("round %d: start bit of %d = %v, want %v", round, id, start, wantRelOK)
		}
	}
	for w, word := range st.frontier {
		if word != 0 {
			t.Fatalf("round %d: frontier word %d = %b left set after the search", round, w, word)
		}
	}
}

// TestIncrementalStateMatchesRecomputation drives the search one slicing
// round at a time and checks the incremental bookkeeping after every
// round, across metrics whose rankings differ.
func TestIncrementalStateMatchesRecomputation(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7} {
		for name, g := range incrementalGraphs(t, seed) {
			for _, m := range []Metric{PURE(), NORM(), ADAPT(1.25)} {
				for _, e := range []CommEstimator{CCNE(), CCAA()} {
					st := bindState(t, g, m, e, 3)
					for round := 0; st.unassigned > 0; round++ {
						checkIncremental(t, st, round)
						best, err := st.findCriticalPath()
						if err != nil {
							t.Fatalf("seed %d %s %s/%s: %v", seed, name, m.Name(), e.Name(), err)
						}
						st.slice(slices.Clone(best.path), best.ratio)
					}
					checkIncremental(t, st, -1)
				}
			}
		}
	}
}

// checkPaths fails the test unless res.Paths partitions the nodes of g and
// every path is capped at its own length.
func checkPaths(t *testing.T, g *taskgraph.Graph, res *Result) {
	t.Helper()
	seen := make([]int, g.NumNodes())
	total := 0
	for i, p := range res.Paths {
		if cap(p) != len(p) {
			t.Fatalf("path %d: cap %d, len %d: an append would overwrite the next path", i, cap(p), len(p))
		}
		total += len(p)
		for _, id := range p {
			seen[id]++
		}
	}
	if total != g.NumNodes() {
		t.Fatalf("path lengths sum to %d, want %d", total, g.NumNodes())
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("node %d is in %d paths, want 1", id, c)
		}
	}
}

// TestPathBacking checks the shared path backing, fresh and on a recycled
// Result carried across graphs of different sizes: the paths partition the
// nodes, and appending to one path leaves the next one intact.
func TestPathBacking(t *testing.T) {
	s := sys(t, 4)
	d := Distributor{Metric: PURE(), Estimator: CCAA()}
	sc := NewScratch()
	var recycled *Result
	for _, seed := range []uint64{1, 5} {
		for name, g := range incrementalGraphs(t, seed) {
			fresh, err := d.Distribute(g, s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkPaths(t, g, fresh)
			if recycled, err = d.DistributeScratch(g, s, recycled, sc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkPaths(t, g, recycled)
			if diff := sameResult(recycled, fresh); diff != "" {
				t.Fatalf("%s: recycled result diverges: %s", name, diff)
			}
			if len(fresh.Paths) > 1 {
				next := slices.Clone(fresh.Paths[1])
				_ = append(fresh.Paths[0], taskgraph.None)
				if !slices.Equal(fresh.Paths[1], next) {
					t.Fatalf("%s: appending to path 0 changed path 1 to %v, want %v", name, fresh.Paths[1], next)
				}
			}
		}
	}
}
