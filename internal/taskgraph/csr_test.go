package taskgraph

import (
	"math/rand"
	"testing"
)

// shadowGraph mirrors the adjacency a Builder accumulates, using the naive
// map-of-slices layout the package used before the CSR compaction. The CSR
// arrays must be observationally identical to it: same neighbor sets, same
// per-node order (the historical append order).
type shadowGraph struct {
	succ map[NodeID][]NodeID
	pred map[NodeID][]NodeID
}

func newShadow() *shadowGraph {
	return &shadowGraph{succ: map[NodeID][]NodeID{}, pred: map[NodeID][]NodeID{}}
}

func (s *shadowGraph) connect(u, v, m NodeID) {
	s.succ[u] = append(s.succ[u], m)
	s.succ[m] = append(s.succ[m], v)
	s.pred[m] = append(s.pred[m], u)
	s.pred[v] = append(s.pred[v], m)
}

// randomDAG builds a random layered DAG alongside its shadow adjacency.
// Arcs always go from a lower to a higher subtask index, so the graph is
// acyclic by construction.
func randomDAG(t *testing.T, rng *rand.Rand, subtasks int, hint bool) (*Graph, *shadowGraph) {
	t.Helper()
	var b *Builder
	if hint {
		b = NewBuilderHint(subtasks * 3)
	} else {
		b = NewBuilder()
	}
	sh := newShadow()
	ids := make([]NodeID, subtasks)
	for i := range ids {
		ids[i] = b.AddSubtask("", 1+rng.Float64()*9)
	}
	for i := 0; i < subtasks; i++ {
		for j := i + 1; j < subtasks; j++ {
			if rng.Float64() < 0.25 {
				m := b.Connect(ids[i], ids[j], rng.Float64()*4)
				sh.connect(ids[i], ids[j], m)
			}
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return g, sh
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCSRMatchesNaiveAdjacency fuzzes random DAGs and checks that every
// CSR-derived view (Succ, Pred, degrees, offsets, topological order,
// kind/cost views) agrees with the naive map-of-slices shadow.
func TestCSRMatchesNaiveAdjacency(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, sh := randomDAG(t, rng, 3+rng.Intn(14), seed%2 == 0)

		n := g.NumNodes()
		succOff, succAdj := g.SuccCSR()
		predOff, predAdj := g.PredCSR()
		if len(succOff) != n+1 || len(predOff) != n+1 {
			t.Fatalf("seed %d: offset arrays have %d/%d entries, want %d", seed, len(succOff), len(predOff), n+1)
		}
		if int(succOff[n]) != len(succAdj) || int(predOff[n]) != len(predAdj) {
			t.Fatalf("seed %d: final offsets %d/%d do not cover flat arrays %d/%d",
				seed, succOff[n], predOff[n], len(succAdj), len(predAdj))
		}
		for id := NodeID(0); int(id) < n; id++ {
			if succOff[id] > succOff[id+1] || predOff[id] > predOff[id+1] {
				t.Fatalf("seed %d: offsets not monotone at node %d", seed, id)
			}
			if !sameIDs(g.Succ(id), sh.succ[id]) {
				t.Errorf("seed %d node %d: Succ = %v, shadow %v", seed, id, g.Succ(id), sh.succ[id])
			}
			if !sameIDs(g.Pred(id), sh.pred[id]) {
				t.Errorf("seed %d node %d: Pred = %v, shadow %v", seed, id, g.Pred(id), sh.pred[id])
			}
			if g.OutDegree(id) != len(sh.succ[id]) || g.InDegree(id) != len(sh.pred[id]) {
				t.Errorf("seed %d node %d: degrees %d/%d, shadow %d/%d",
					seed, id, g.OutDegree(id), g.InDegree(id), len(sh.succ[id]), len(sh.pred[id]))
			}
			if g.kinds[id] != g.Node(id).Kind {
				t.Errorf("seed %d node %d: kind view %v != node %v", seed, id, g.kinds[id], g.Node(id).Kind)
			}
			want := g.Node(id).Cost
			if g.Node(id).Kind == KindMessage {
				want = g.Node(id).Size
			}
			if g.Costs()[id] != want {
				t.Errorf("seed %d node %d: cost view %v != node %v", seed, id, g.Costs()[id], want)
			}
		}

		topo := g.TopoOrder()
		if len(topo) != n {
			t.Fatalf("seed %d: topo has %d nodes, want %d", seed, len(topo), n)
		}
		pos := make([]int, n)
		for i, id := range topo {
			pos[id] = i
		}
		for u, vs := range sh.succ {
			for _, v := range vs {
				if pos[u] >= pos[v] {
					t.Errorf("seed %d: topo places %d (pos %d) after successor %d (pos %d)",
						seed, u, pos[u], v, pos[v])
				}
			}
		}
	}
}

// TestCloneSharesTopology checks that Clone shares the immutable CSR arrays
// and topological order with the original while keeping costs independent.
func TestCloneSharesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, _ := randomDAG(t, rng, 12, true)
	c := g.Clone()

	gs, ga := g.SuccCSR()
	cs, ca := c.SuccCSR()
	if &gs[0] != &cs[0] || &ga[0] != &ca[0] {
		t.Error("clone does not share CSR successor arrays")
	}
	if &g.TopoOrder()[0] != &c.TopoOrder()[0] {
		t.Error("clone does not share the topological order")
	}

	var sub NodeID = -1
	for id, k := range g.Kinds() {
		if k == KindSubtask {
			sub = NodeID(id)
			break
		}
	}
	before := g.Costs()[sub]
	if err := c.SetCost(sub, before+17); err != nil {
		t.Fatal(err)
	}
	if g.Costs()[sub] != before {
		t.Errorf("SetCost on clone leaked into original: %v -> %v", before, g.Costs()[sub])
	}
	if c.Costs()[sub] != before+17 || c.Node(sub).Cost != before+17 {
		t.Errorf("clone cost view out of sync: view %v, node %v", c.Costs()[sub], c.Node(sub).Cost)
	}
}

// TestBuilderHintEquivalence checks that NewBuilderHint only presizes: the
// finalized graph is identical to one built without a hint.
func TestBuilderHintEquivalence(t *testing.T) {
	build := func(hint bool) *Graph {
		rng := rand.New(rand.NewSource(42))
		g, _ := randomDAG(t, rng, 10, hint)
		return g
	}
	a, b := build(false), build(true)
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	if !sameIDs(a.TopoOrder(), b.TopoOrder()) {
		t.Errorf("topo orders differ: %v vs %v", a.TopoOrder(), b.TopoOrder())
	}
	for id := NodeID(0); int(id) < a.NumNodes(); id++ {
		if !sameIDs(a.Succ(id), b.Succ(id)) || !sameIDs(a.Pred(id), b.Pred(id)) {
			t.Errorf("adjacency differs at node %d", id)
		}
	}
}
