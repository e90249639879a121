package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// bindState prepares a bare distState for g the way distribute does, so a
// test can drive runDP, findCriticalPath and slice one step at a time.
func bindState(t *testing.T, g *taskgraph.Graph, m Metric, e CommEstimator, procs int) *distState {
	t.Helper()
	s := sys(t, procs)
	est := e.Estimate(nil, g, s)
	vc := m.VirtualCosts(nil, g, s, est)
	n := g.NumNodes()
	st := &distState{}
	st.g, st.metric, st.vc, st.vcWin = g, m, vc, vc
	st.res = &Result{
		Release:  make([]float64, n),
		Relative: make([]float64, n),
		Absolute: make([]float64, n),
		Windowed: make([]bool, n),
	}
	st.prepare()
	return st
}

// checkReference fails the test unless the optimized distributor, fresh
// and on a reused Scratch, matches the frozen reference on g.
func checkReference(t *testing.T, g *taskgraph.Graph, d Distributor, s *platform.System, sc *Scratch) {
	t.Helper()
	want, errRef := referenceDistribute(d, g, s)
	got, err := d.Distribute(g, s)
	if (err == nil) != (errRef == nil) {
		t.Fatalf("%s/%s: optimized err %v, reference err %v", d.Metric.Name(), d.Estimator.Name(), err, errRef)
	}
	if err != nil {
		return
	}
	if diff := sameResult(got, want); diff != "" {
		t.Fatalf("%s/%s: optimized diverges from reference: %s", d.Metric.Name(), d.Estimator.Name(), diff)
	}
	got, err = d.DistributeScratch(g, s, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(got, want); diff != "" {
		t.Fatalf("%s/%s on a reused scratch: diverges from reference: %s", d.Metric.Name(), d.Estimator.Name(), diff)
	}
}

// TestJoinWriteBelowBand builds a join whose later-in-topological-order
// predecessor brings fewer windowed nodes: s -> x1 -> x2 -> x3 -> J and
// s -> y -> J, where y also waits on a four-subtask chain, so Kahn's order
// places y's message into J after x3's. The DP from s first opens J's
// band at k = 5 (s, x1, x2, x3, J) in the row's inline cell and then
// writes k = 3 (s, y, J) below it: the k = 5 cell moves into the arena,
// the gap at k = 4 is filled with -Inf, and k = 3 becomes the inline
// cell. Under CCNE every message node costs zero, so only subtasks count.
func TestJoinWriteBelowBand(t *testing.T) {
	b := taskgraph.NewBuilder()
	s := b.AddSubtask("s", 2)
	x1 := b.AddSubtask("x1", 1)
	x2 := b.AddSubtask("x2", 1)
	x3 := b.AddSubtask("x3", 1)
	y := b.AddSubtask("y", 3)
	j := b.AddSubtask("J", 1)
	c1 := b.AddSubtask("c1", 1)
	c2 := b.AddSubtask("c2", 1)
	c3 := b.AddSubtask("c3", 1)
	c4 := b.AddSubtask("c4", 1)
	b.Connect(s, x1, 1)
	b.Connect(x1, x2, 1)
	b.Connect(x2, x3, 1)
	mx := b.Connect(x3, j, 1)
	b.Connect(s, y, 1)
	my := b.Connect(y, j, 1)
	b.Connect(c1, c2, 1)
	b.Connect(c2, c3, 1)
	b.Connect(c3, c4, 1)
	b.Connect(c4, y, 1)
	b.SetEndToEnd(j, 40)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	topo := g.TopoOrder()
	if slices.Index(topo, mx) > slices.Index(topo, my) {
		t.Fatalf("precondition: x3's message must precede y's in %v", topo)
	}

	st := bindState(t, g, PURE(), CCNE(), 4)
	st.runDP(s)
	pos := st.topoIdx
	jp := pos[j]
	if r := st.rows[jp]; r.min != 3 || r.max != 5 {
		t.Fatalf("J's band = [%d, %d], want [3, 5]", r.min, r.max)
	}
	for _, c := range []struct {
		k   int
		val float64
		par int32
	}{
		{3, 6, pos[my]}, // s, y, J: the inline cell
		{4, negInf, -1}, // gap fill; its parent is never read
		{5, 6, pos[mx]}, // s, x1, x2, x3, J: moved into the arena
	} {
		val, par := st.cell(jp, c.k)
		if val != c.val || (c.par >= 0 && par != c.par) {
			t.Errorf("J's cell %d = (%v, %d), want (%v, %d)", c.k, val, par, c.val, c.par)
		}
	}
	if i := int(jp)*st.width + 5; st.arenaVal[i] != 6 || st.arenaPar[i] != pos[mx] {
		t.Errorf("arena cell 5 of J = (%v, %d), want the moved first write (6, %d)", st.arenaVal[i], st.arenaPar[i], pos[mx])
	}

	sc := NewScratch()
	for _, m := range []Metric{PURE(), NORM(), THRES(1, 1.25), ADAPT(1.25)} {
		for _, e := range []CommEstimator{CCNE(), CCAA()} {
			checkReference(t, g, Distributor{Metric: m, Estimator: e}, sys(t, 4), sc)
		}
	}
}

// TestRowBandGrowsBothWays drives one DP row through every write its
// record meets: J's first write opens the band at k = 4 in the inline
// cell, an equal value at k = 4 keeps the first parent, a write at k = 3
// moves the inline cell into the arena, a write at k = 7 gap-fills the
// arena above the band, and a second equal value at k = 4 meets the
// moved cell in the arena and keeps its parent too. Subtask costs are
// integers and CCNE costs message nodes at zero, so the equal values are
// exact; independent chains into y and d1 delay their messages into J in
// topological order.
func TestRowBandGrowsBothWays(t *testing.T) {
	b := taskgraph.NewBuilder()
	s := b.AddSubtask("s", 2)
	j := b.AddSubtask("J", 1)
	// chain appends n unit-cost subtasks after from and returns the last.
	chain := func(name string, from taskgraph.NodeID, n int) taskgraph.NodeID {
		for i := 0; i < n; i++ {
			next := b.AddSubtask(fmt.Sprint(name, i+1), 1)
			if from != taskgraph.None {
				b.Connect(from, next, 1)
			}
			from = next
		}
		return from
	}
	a := chain("a", s, 2)     // k = 4 at J, value 5: first write
	a2 := chain("b", s, 2)    // k = 4, value 5: equal, inline
	y := b.AddSubtask("y", 3) // k = 3, value 6: below the band
	b.Connect(s, y, 1)
	b.Connect(chain("c", taskgraph.None, 4), y, 1)
	x := chain("x", s, 5)       // k = 7, value 8: above the band
	d1 := b.AddSubtask("d1", 1) // k = 4, value 5: equal, in the arena
	b.Connect(s, d1, 1)
	b.Connect(chain("g", taskgraph.None, 5), d1, 1)
	d := chain("d", d1, 1)
	ma := b.Connect(a, j, 1)
	ma2 := b.Connect(a2, j, 1)
	my := b.Connect(y, j, 1)
	mx := b.Connect(x, j, 1)
	md := b.Connect(d, j, 1)
	b.SetEndToEnd(j, 60)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	topo := g.TopoOrder()
	order := []taskgraph.NodeID{ma, ma2, my, mx}
	for i := 1; i < len(order); i++ {
		if slices.Index(topo, order[i-1]) > slices.Index(topo, order[i]) {
			t.Fatalf("precondition: J's messages must come in order %v in %v", order, topo)
		}
	}
	if slices.Index(topo, md) < slices.Index(topo, my) {
		t.Fatalf("precondition: d's message must follow y's in %v", topo)
	}

	st := bindState(t, g, PURE(), CCNE(), 4)
	st.runDP(s)
	pos := st.topoIdx
	jp := pos[j]
	if r := st.rows[jp]; r.min != 3 || r.max != 7 {
		t.Fatalf("J's band = [%d, %d], want [3, 7]", r.min, r.max)
	}
	for _, c := range []struct {
		k   int
		val float64
		par int32
	}{
		{3, 6, pos[my]},
		{4, 5, pos[ma]},
		{5, negInf, -1},
		{6, negInf, -1},
		{7, 8, pos[mx]},
	} {
		val, par := st.cell(jp, c.k)
		if val != c.val || (c.par >= 0 && par != c.par) {
			t.Errorf("J's cell %d = (%v, %d), want (%v, %d)", c.k, val, par, c.val, c.par)
		}
	}
	path := st.backtrackInto(nil, jp, 4)
	if path[1] != g.Succ(s)[0] || path[len(path)-2] != ma {
		t.Errorf("backtrack from (J, 4) = %v, want the first path s, a1, a2, J", path)
	}

	sc := NewScratch()
	for _, m := range []Metric{PURE(), NORM(), THRES(1, 1.25), ADAPT(1.25)} {
		for _, e := range []CommEstimator{CCNE(), CCAA()} {
			checkReference(t, g, Distributor{Metric: m, Estimator: e}, sys(t, 4), sc)
		}
	}
}

// TestRerunShrinksReach checks the rerun of a memoized start: start s
// shares the join j with the tighter path from a, so slicing that path
// assigns part of s's reach. The rerun processes only the two rows still
// reachable through unassigned nodes (the DP's row stamps, not a stored
// list, decide which), and the candidate's reach bitset shrinks to them.
func TestRerunShrinksReach(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 5)
	s := b.AddSubtask("s", 1)
	j := b.AddSubtask("j", 1)
	o := b.AddSubtask("o", 1)
	p := b.AddSubtask("p", 1)
	b.Connect(a, j, 1)
	msj := b.Connect(s, j, 1)
	mjo := b.Connect(j, o, 1)
	b.Connect(a, p, 1)
	b.SetEndToEnd(o, 20)
	b.SetEndToEnd(p, 40)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	st := bindState(t, g, PURE(), CCNE(), 4)
	bitsOf := func(ids ...taskgraph.NodeID) []uint64 {
		bits := make([]uint64, (g.NumNodes()+63)/64)
		for _, id := range ids {
			p := st.topoIdx[id]
			bits[p>>6] |= 1 << (uint(p) & 63)
		}
		return bits
	}

	best, err := st.findCriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if best != &st.cand[a] {
		t.Fatalf("first critical path %v, want the one from a", best.path)
	}
	c := &st.cand[s]
	if want := bitsOf(s, msj, j, mjo, o); !slices.Equal(c.reachBits, want) {
		t.Fatalf("reach of s = %b, want %b", c.reachBits, want)
	}

	st.slice(slices.Clone(best.path), best.ratio)
	if !c.valid || st.reachFree(c.reachBits) {
		t.Fatal("precondition: s must hold a memoized candidate whose reach is no longer free")
	}
	rows := st.res.Search.DPRows
	st.runDP(s)
	st.evalStart(s, c)
	if got := st.res.Search.DPRows - rows; got != 2 {
		t.Errorf("rerun processed %d rows, want 2", got)
	}
	if want := bitsOf(s, msj); !slices.Equal(c.reachBits, want) {
		t.Errorf("rerun reach of s = %b, want %b", c.reachBits, want)
	}

	sc := NewScratch()
	for _, m := range []Metric{PURE(), NORM(), ADAPT(1.25)} {
		checkReference(t, g, Distributor{Metric: m, Estimator: CCNE()}, sys(t, 4), sc)
	}
}

// TestWideFanInAllocBounded pins the search's memory on a wide fan-in:
// inputs subtasks feed one hub, which fans out to inputs-1 leaves. Every
// input is a start whose reach is about half the graph, so anything the
// search keeps per start and per reached node grows with the square of
// the graph. The memoized reach sets are bitsets (one bit per node per
// start), so a whole distribution allocates well under one byte per
// (node, input) pair; a per-start list of node IDs would need about four.
func TestWideFanInAllocBounded(t *testing.T) {
	const inputs = 1000
	b := taskgraph.NewBuilder()
	hub := b.AddSubtask("hub", 1)
	for i := 0; i < inputs; i++ {
		b.Connect(b.AddSubtask("in", 1), hub, 1)
	}
	for i := 0; i < inputs-1; i++ {
		out := b.AddSubtask("out", 1)
		b.Connect(hub, out, 1)
		b.SetEndToEnd(out, 1000)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	d := Distributor{Metric: PURE(), Estimator: CCNE()}
	s := sys(t, 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := d.DistributeScratch(g, s, nil, NewScratch()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(g.NumNodes() * inputs); alloc > limit {
		t.Errorf("distribution allocated %d bytes on a %d-node, %d-input fan-in; want at most %d", alloc, g.NumNodes(), inputs, limit)
	}
}

// FuzzDistributeMatchesReference drives the optimized search against the
// frozen reference on fuzzer-chosen workloads: the inputs pick the seed,
// the graph shape and size, the metric, the estimator and the processor
// count, and the Result must match bit for bit, both fresh and on a
// Scratch that last ran another graph.
func FuzzDistributeMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(7), uint8(5), uint8(1), uint8(0), uint8(9), uint8(1))
	f.Add(uint64(42), uint8(6), uint8(3), uint8(2), uint8(0), uint8(15))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(1), uint8(11), uint8(7))
	metrics := []Metric{
		NORM(), PURE(), THRES(1, 1.25), ADAPT(1.25),
		ADAPTAblation(1.25, true, false), ADAPTAblation(1.25, false, true),
	}
	estimators := []CommEstimator{CCNE(), CCAA(), CCEXP()}
	shapes := []generator.Shape{
		generator.ShapeChain, generator.ShapeInTree, generator.ShapeOutTree,
		generator.ShapeForkJoin, generator.ShapeLayered,
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, metric, est, size, procs uint8) {
		cfg := generator.Default(generator.MDET)
		var g *taskgraph.Graph
		var err error
		switch i := int(shape) % (len(shapes) + 2); {
		case i < len(shapes):
			g, err = generator.Structured(generator.StructuredConfig{
				Workload: cfg, Shape: shapes[i], Depth: 2 + int(size)%4, Width: 1 + int(size/4)%3,
			}, rng.New(seed))
		case i == len(shapes):
			g, err = generator.Random(cfg, rng.New(seed))
		default:
			g = diamondLattice(t, seed)
		}
		if err != nil {
			t.Skip(err)
		}
		d := Distributor{
			Metric:    metrics[int(metric)%len(metrics)],
			Estimator: estimators[int(est)%len(estimators)],
		}
		sc := NewScratch()
		if _, err := d.DistributeScratch(diamondLattice(t, seed+1), sys(t, 3), nil, sc); err != nil {
			t.Fatal(err)
		}
		checkReference(t, g, d, sys(t, 1+int(procs)%16), sc)
	})
}
