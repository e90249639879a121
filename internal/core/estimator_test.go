package core

import (
	"fmt"
	"math"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func TestCCNEAllZero(t *testing.T) {
	g := threeChain(t)
	est := CCNE().Estimate(nil, g, sys(t, 8))
	for id, v := range est {
		if v != 0 {
			t.Errorf("CCNE est[%d] = %v, want 0", id, v)
		}
	}
}

func TestCCAASharedBus(t *testing.T) {
	g := threeChain(t)
	est := CCAA().Estimate(nil, g, sys(t, 8))
	for _, n := range g.Nodes() {
		want := 0.0
		if n.Kind == taskgraph.KindMessage {
			want = n.Size // 1 time unit per item on the paper's bus
		}
		if !approx(est[n.ID], want) {
			t.Errorf("CCAA est[%v] = %v, want %v", n.ID, est[n.ID], want)
		}
	}
}

func TestCCAASingleProcessor(t *testing.T) {
	g := threeChain(t)
	est := CCAA().Estimate(nil, g, sys(t, 1))
	for id, v := range est {
		if v != 0 {
			t.Errorf("CCAA on 1 proc: est[%d] = %v, want 0", id, v)
		}
	}
}

func TestCCAARingUsesMeanPairCost(t *testing.T) {
	g := threeChain(t)
	s := sys(t, 4, platform.WithTopology(platform.Ring{NumProcs: 4, PerItemCost: 1}))
	est := CCAA().Estimate(nil, g, s)
	// Ring of 4: ordered pair distances sum to 16 over 12 pairs -> 4/3.
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		want := n.Size * 4.0 / 3.0
		if !approx(est[n.ID], want) {
			t.Errorf("CCAA ring est[%v] = %v, want %v", n.ID, est[n.ID], want)
		}
	}
}

func TestCCEXPInterpolates(t *testing.T) {
	g := threeChain(t)
	for _, n := range []int{2, 4, 16} {
		s := sys(t, n)
		est := CCEXP().Estimate(nil, g, s)
		scale := 1 - 1/float64(n)
		for _, node := range g.Nodes() {
			if node.Kind != taskgraph.KindMessage {
				continue
			}
			if !approx(est[node.ID], scale*node.Size) {
				t.Errorf("CCEXP N=%d est[%v] = %v, want %v", n, node.ID, est[node.ID], scale*node.Size)
			}
		}
	}
}

func TestCCEXPBelowCCAA(t *testing.T) {
	g := threeChain(t)
	s := sys(t, 4)
	aa := CCAA().Estimate(nil, g, s)
	ex := CCEXP().Estimate(nil, g, s)
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		if ex[n.ID] >= aa[n.ID] {
			t.Errorf("CCEXP est %v not below CCAA est %v", ex[n.ID], aa[n.ID])
		}
		if ex[n.ID] <= 0 {
			t.Errorf("CCEXP est %v not above zero", ex[n.ID])
		}
	}
}

func TestEstimatorNames(t *testing.T) {
	for name, e := range map[string]CommEstimator{"CCNE": CCNE(), "CCAA": CCAA(), "CCEXP": CCEXP()} {
		if e.Name() != name {
			t.Errorf("Name = %q, want %q", e.Name(), name)
		}
	}
}

func TestCCKnownExplicitAssignment(t *testing.T) {
	g := threeChain(t)
	s := sys(t, 4)
	// Place a and b together, c elsewhere: first message free, second paid.
	assign := make([]int, g.NumNodes())
	for i := range assign {
		assign[i] = -1
	}
	a, b, c := nodeByNameT(t, g, "a"), nodeByNameT(t, g, "b"), nodeByNameT(t, g, "c")
	assign[a] = 0
	assign[b] = 0
	assign[c] = 2
	est := CCKnown(assign).Estimate(nil, g, s)
	var m1, m2 taskgraph.NodeID
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		if g.Pred(n.ID)[0] == a {
			m1 = n.ID
		} else {
			m2 = n.ID
		}
	}
	if est[m1] != 0 {
		t.Errorf("co-located message est = %v, want 0", est[m1])
	}
	if !approx(est[m2], 5) {
		t.Errorf("cross-processor message est = %v, want 5", est[m2])
	}
}

func TestCCKnownFallsBackToPins(t *testing.T) {
	b := taskgraph.NewBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 10)
	b.Connect(u, v, 8)
	b.Pin(u, 0)
	b.Pin(v, 1)
	b.SetEndToEnd(v, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	est := CCKnown(nil).Estimate(nil, g, sys(t, 2))
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindMessage && !approx(est[n.ID], 8) {
			t.Errorf("pinned-endpoints message est = %v, want 8", est[n.ID])
		}
	}
}

func TestCCKnownUnknownEndpointBehavesLikeCCAA(t *testing.T) {
	g := threeChain(t) // nothing pinned, nil assignment
	s := sys(t, 4)
	known := CCKnown(nil).Estimate(nil, g, s)
	aa := CCAA().Estimate(nil, g, s)
	for id := range known {
		if !approx(known[id], aa[id]) {
			t.Errorf("est[%d] = %v, want CCAA's %v", id, known[id], aa[id])
		}
	}
}

func TestCCKnownCopiesAssignment(t *testing.T) {
	g := threeChain(t)
	s := sys(t, 2)
	assign := make([]int, g.NumNodes())
	e := CCKnown(assign)
	before := e.Estimate(nil, g, s)
	assign[2] = 1 // mutate caller's slice after construction
	after := e.Estimate(nil, g, s)
	for id := range before {
		if before[id] != after[id] {
			t.Fatal("CCKnown did not copy the assignment")
		}
	}
}

func nodeByNameT(t *testing.T, g *taskgraph.Graph, name string) taskgraph.NodeID {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name == name {
			return n.ID
		}
	}
	t.Fatalf("no node %q", name)
	return taskgraph.None
}

func TestCCHOP(t *testing.T) {
	g := threeChain(t)
	s := sys(t, 4)
	// A coster with mean route cost 2 doubles every message estimate.
	est := CCHOP(fixedCoster(2)).Estimate(nil, g, s)
	for _, n := range g.Nodes() {
		want := 0.0
		if n.Kind == taskgraph.KindMessage {
			want = 2 * n.Size
		}
		if !approx(est[n.ID], want) {
			t.Errorf("CCHOP est[%v] = %v, want %v", n.ID, est[n.ID], want)
		}
	}
	if CCHOP(fixedCoster(1)).Name() != "CCHOP" {
		t.Error("CCHOP name mismatch")
	}
}

type fixedCoster float64

func (f fixedCoster) MeanRouteCost() float64 { return float64(f) }

// checkBufferContract fails unless fill, given a nil dst and then a
// longer NaN-filled dst that it must fill in place (twice, reusing the
// returned buffer), returns bit-identical vectors of length n.
func checkBufferContract(t *testing.T, n int, fill func(dst []float64) []float64) {
	t.Helper()
	want := fill(nil)
	if len(want) != n {
		t.Fatalf("nil dst: len %d, want %d", len(want), n)
	}
	dst := make([]float64, n+7)
	for round := 0; round < 2; round++ {
		dst = dst[:cap(dst)]
		for i := range dst {
			dst[i] = math.NaN()
		}
		got := fill(dst)
		if len(got) != n {
			t.Fatalf("round %d: len %d, want %d", round, len(got), n)
		}
		if &got[0] != &dst[0] {
			t.Fatalf("round %d: reallocated a dst with room for %d entries", round, n)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: [%d] = %v, want %v (nil dst)", round, i, got[i], want[i])
			}
		}
		dst = got
	}
}

// contractGraph is a generated graph with messages of several sizes, so
// every estimator and metric fills nonzero entries of both node kinds.
func contractGraph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEstimatorBufferContract: every stock estimator gives the same bits
// into a nil dst as into a longer, NaN-filled, reused one, on a bus, a
// ring and a single processor.
func TestEstimatorBufferContract(t *testing.T) {
	g := contractGraph(t)
	half := make([]int, g.NumNodes()/2)
	for i := range half {
		half[i] = i % 3
	}
	systems := []*platform.System{
		sys(t, 1),
		sys(t, 4),
		sys(t, 5, platform.WithTopology(platform.Ring{NumProcs: 5, PerItemCost: 1})),
	}
	for _, e := range []CommEstimator{CCNE(), CCAA(), CCEXP(), CCHOP(fixedCoster(1.5)), CCKnown(half)} {
		for _, s := range systems {
			t.Run(fmt.Sprintf("%s/%d", e.Name(), s.NumProcs()), func(t *testing.T) {
				checkBufferContract(t, g.NumNodes(), func(dst []float64) []float64 {
					return e.Estimate(dst, g, s)
				})
			})
		}
	}
}
