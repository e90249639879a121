package core

import (
	"fmt"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// sameResult reports the first difference between two distributions, or ""
// when they are bit-for-bit identical (Search counters excluded: the
// reference does not track them).
func sameResult(a, b *Result) string {
	if a.Metric != b.Metric || a.Estimator != b.Estimator {
		return fmt.Sprintf("labels %s/%s vs %s/%s", a.Metric, a.Estimator, b.Metric, b.Estimator)
	}
	if len(a.Release) != len(b.Release) {
		return fmt.Sprintf("%d vs %d nodes", len(a.Release), len(b.Release))
	}
	for id := range a.Release {
		switch {
		case a.Release[id] != b.Release[id]:
			return fmt.Sprintf("release[%d] = %v vs %v", id, a.Release[id], b.Release[id])
		case a.Relative[id] != b.Relative[id]:
			return fmt.Sprintf("relative[%d] = %v vs %v", id, a.Relative[id], b.Relative[id])
		case a.Absolute[id] != b.Absolute[id]:
			return fmt.Sprintf("absolute[%d] = %v vs %v", id, a.Absolute[id], b.Absolute[id])
		case a.Windowed[id] != b.Windowed[id]:
			return fmt.Sprintf("windowed[%d] = %v vs %v", id, a.Windowed[id], b.Windowed[id])
		case a.EstimatedComm[id] != b.EstimatedComm[id]:
			return fmt.Sprintf("estComm[%d] = %v vs %v", id, a.EstimatedComm[id], b.EstimatedComm[id])
		}
	}
	if len(a.Paths) != len(b.Paths) {
		return fmt.Sprintf("%d vs %d sliced paths", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if len(a.Paths[i]) != len(b.Paths[i]) {
			return fmt.Sprintf("path %d: %v vs %v", i, a.Paths[i], b.Paths[i])
		}
		for j := range a.Paths[i] {
			if a.Paths[i][j] != b.Paths[i][j] {
				return fmt.Sprintf("path %d: %v vs %v", i, a.Paths[i], b.Paths[i])
			}
		}
	}
	return ""
}

// equivalenceGraphs generates the shape battery for one seed: the paper's
// random workload plus every structured family and a multi-diamond lattice.
func equivalenceGraphs(t *testing.T, seed uint64) map[string]*taskgraph.Graph {
	t.Helper()
	out := make(map[string]*taskgraph.Graph)

	cfg := generator.Default(generator.HDET)
	g, err := generator.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatalf("random graph (seed %d): %v", seed, err)
	}
	out["random"] = g

	structured := []struct {
		name         string
		shape        generator.Shape
		depth, width int
	}{
		{"chain", generator.ShapeChain, 12, 0},
		{"in-tree", generator.ShapeInTree, 4, 2},
		{"out-tree", generator.ShapeOutTree, 4, 2},
		{"fork-join", generator.ShapeForkJoin, 5, 4},
		{"layered", generator.ShapeLayered, 5, 4},
	}
	for _, sc := range structured {
		g, err := generator.Structured(generator.StructuredConfig{
			Workload: cfg, Shape: sc.shape, Depth: sc.depth, Width: sc.width,
		}, rng.New(seed))
		if err != nil {
			t.Fatalf("%s graph (seed %d): %v", sc.name, seed, err)
		}
		out[sc.name] = g
	}

	out["diamond"] = diamondLattice(t, seed)
	return out
}

// diamondLattice builds a chain of diamonds (fork of two, join, fork, ...)
// with deterministic pseudo-random costs — a shape with many same-length
// parallel branches, which stresses the search's tie-breaking.
func diamondLattice(t *testing.T, seed uint64) *taskgraph.Graph {
	t.Helper()
	src := rng.New(seed)
	b := taskgraph.NewBuilder()
	cost := func() float64 { return src.Float64In(1, 50) }
	prev := b.AddSubtask("", cost())
	for d := 0; d < 4; d++ {
		left := b.AddSubtask("", cost())
		right := b.AddSubtask("", cost())
		join := b.AddSubtask("", cost())
		b.Connect(prev, left, src.Float64In(0, 10))
		b.Connect(prev, right, src.Float64In(0, 10))
		b.Connect(left, join, src.Float64In(0, 10))
		b.Connect(right, join, src.Float64In(0, 10))
		prev = join
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	g.AssignDeadlinesByOLR(1.5)
	return g
}

// TestPropertyOptimizedMatchesReference proves the optimized distributor
// (reachability-pruned, memoized, generation-stamped) produces bit-for-bit
// the same Result as the frozen reference implementation across every
// metric × estimator × graph shape, over a battery of seeds — including
// platform sizes that flip ADAPT's inflation on and off.
func TestPropertyOptimizedMatchesReference(t *testing.T) {
	metrics := []Metric{
		NORM(), PURE(), THRES(1, 1.25), ADAPT(1.25),
		ADAPTAblation(1.25, true, false), ADAPTAblation(1.25, false, true),
	}
	estimators := []CommEstimator{CCNE(), CCAA(), CCEXP()}
	sizes := []int{2, 16}

	systems := make([]*platform.System, len(sizes))
	for i, n := range sizes {
		var err error
		if systems[i], err = platform.New(n); err != nil {
			t.Fatal(err)
		}
	}

	for seed := uint64(1); seed <= 12; seed++ {
		for shape, g := range equivalenceGraphs(t, seed) {
			for _, m := range metrics {
				for _, e := range estimators {
					for _, sys := range systems {
						d := Distributor{Metric: m, Estimator: e}
						got, err1 := d.Distribute(g, sys)
						want, err2 := referenceDistribute(d, g, sys)
						if (err1 == nil) != (err2 == nil) {
							t.Fatalf("seed %d %s %s/%s: optimized err %v, reference err %v",
								seed, shape, m.Name(), e.Name(), err1, err2)
						}
						if err1 != nil {
							continue
						}
						if diff := sameResult(got, want); diff != "" {
							t.Fatalf("seed %d %s %s/%s (%d procs): optimized diverges from reference: %s",
								seed, shape, m.Name(), e.Name(), sys.NumProcs(), diff)
						}
					}
				}
			}
		}
	}
}

// TestPropertyOverloadMatchesReference repeats the equivalence check on
// overloaded chains (deadline far below the workload), which drive the
// window-clamping and renormalization paths.
func TestPropertyOverloadMatchesReference(t *testing.T) {
	metrics := []Metric{NORM(), PURE(), THRES(1, 1.25), ADAPT(1.25)}
	s := sys(t, 4)
	for seed := uint64(1); seed <= 16; seed++ {
		r := rng.New(seed)
		b := taskgraph.NewBuilder()
		n := r.IntIn(2, 10)
		ids := make([]taskgraph.NodeID, n)
		total := 0.0
		for i := range ids {
			cost := r.Float64In(1, 100)
			total += cost
			ids[i] = b.AddSubtask("t", cost)
			if i > 0 {
				b.Connect(ids[i-1], ids[i], 1)
			}
		}
		b.SetEndToEnd(ids[n-1], total*r.Float64In(0.05, 0.5))
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			d := Distributor{Metric: m, Estimator: CCNE()}
			got, err1 := d.Distribute(g, s)
			want, err2 := referenceDistribute(d, g, s)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d %s: errs %v, %v", seed, m.Name(), err1, err2)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("seed %d %s: optimized diverges from reference: %s", seed, m.Name(), diff)
			}
		}
	}
}

// TestSearchStatsCounters sanity-checks the search instrumentation: every
// examined start either ran a DP or reused its cached candidate, and the
// cache must actually engage on a multi-iteration distribution.
func TestSearchStatsCounters(t *testing.T) {
	cfg := generator.Default(generator.MDET)
	g, err := generator.Random(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res := distribute(t, g, PURE(), CCNE(), 4)
	st := res.Search
	if st.Iterations != len(res.Paths) {
		t.Errorf("Iterations = %d, want %d sliced paths", st.Iterations, len(res.Paths))
	}
	if st.StartsExamined == 0 || st.DPRuns == 0 {
		t.Fatalf("empty search stats: %+v", st)
	}
	// DPRuns = cache misses + backtrack re-runs, so examined starts split
	// into reuses and misses, and DPRuns can exceed the misses only by one
	// re-run per iteration.
	misses := st.StartsExamined - st.CacheReuses
	if st.DPRuns < misses || st.DPRuns > misses+st.Iterations {
		t.Errorf("DPRuns = %d outside [%d, %d]", st.DPRuns, misses, misses+st.Iterations)
	}
	if len(res.Paths) > 2 && st.CacheReuses == 0 {
		t.Errorf("no cache reuse across %d iterations: %+v", len(res.Paths), st)
	}
	if st.DPRows < st.DPRuns || st.DPCells == 0 {
		t.Errorf("DP work counters out of range: %+v", st)
	}

	// Exact counts on a hand-built layered graph: the diamond a -> {b, c}
	// -> d plus an independent chain x -> y, PURE under CCNE (message nodes
	// cost zero). Every DP row holds one defined cell, its inline cell, so
	// the band makes each expanded arc visit exactly one cell.
	//   round 1: starts a, x. DP(a) expands all 8 rows and 8 arcs of the
	//            diamond; DP(x) expands x, m_xy, y over 2 arcs. The path
	//            a-b-d (laxity ratio 16/3) beats x-y (14) and is sliced.
	//   round 2: starts x (memo reused) and m_ac, whose DP expands m_ac, c,
	//            m_cd over 2 arcs (m_cd's arc into the assigned d is
	//            skipped). Its path wins with ratio 19/3.
	//   round 3: start x, reused again, and sliced.
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 1)
	bb := b.AddSubtask("b", 2)
	c := b.AddSubtask("c", 1)
	d := b.AddSubtask("d", 1)
	x := b.AddSubtask("x", 1)
	y := b.AddSubtask("y", 1)
	b.Connect(a, bb, 1)
	b.Connect(a, c, 1)
	b.Connect(bb, d, 1)
	b.Connect(c, d, 1)
	b.Connect(x, y, 1)
	b.SetEndToEnd(d, 20)
	b.SetEndToEnd(y, 30)
	lg, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res = distribute(t, lg, PURE(), CCNE(), 4)
	want := SearchStats{Iterations: 3, StartsExamined: 5, DPRuns: 3, CacheReuses: 2, DPRows: 14, DPCells: 12}
	if res.Search != want {
		t.Errorf("layered search stats = %+v, want %+v", res.Search, want)
	}
}
