package deadlinedist

import (
	"math"
	"testing"
)

// Cross-model consistency: the repository has three communication models
// (contention-free platform costs, contended bus, multihop channels) and
// two run-time models (non-preemptive, preemptive). Where their regimes
// overlap they must agree exactly.

func randomWorkload(t *testing.T, seed uint64) *Graph {
	t.Helper()
	g, err := RandomGraph(DefaultWorkload(MDET), NewRandomSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConsistencyCCHOPEqualsCCAAOnUniformNetworks: on bus and mesh
// networks every route costs one unit per item, so CCHOP's estimates — and
// therefore the whole distribution — must equal CCAA's.
func TestConsistencyCCHOPEqualsCCAAOnUniformNetworks(t *testing.T) {
	g := randomWorkload(t, 3)
	sys, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func(int, float64) (*Network, error){BusNetwork, MeshNetwork} {
		net, err := mk(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		hop, err := Distribute(g, sys, PURE(), CCHOP(net))
		if err != nil {
			t.Fatal(err)
		}
		aa, err := Distribute(g, sys, PURE(), CCAA())
		if err != nil {
			t.Fatal(err)
		}
		for id := range hop.Relative {
			if hop.Relative[id] != aa.Relative[id] || hop.Release[id] != aa.Release[id] {
				t.Fatalf("%s: node %d windows differ: CCHOP [%v,+%v] vs CCAA [%v,+%v]",
					net.Name(), id, hop.Release[id], hop.Relative[id], aa.Release[id], aa.Relative[id])
			}
		}
	}
}

// TestConsistencyPreemptiveMatchesNonPreemptiveWithoutContention: with one
// subtask ready per processor at a time (a chain on a large platform),
// preemption never triggers, so both run-time models produce identical
// schedules.
func TestConsistencyPreemptiveMatchesNonPreemptiveWithoutContention(t *testing.T) {
	b := NewGraphBuilder()
	prev := b.AddSubtask("s0", 10)
	for i := 1; i < 8; i++ {
		cur := b.AddSubtask("", 10+float64(i))
		b.Connect(prev, cur, 3)
		prev = cur
	}
	b.SetEndToEnd(prev, 400)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distribute(g, sys, ADAPT(1.25), CCNE())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchedulerConfig{RespectRelease: true}
	np, err := Schedule(g, sys, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Schedule(g, sys, res, SchedulerConfig{RespectRelease: true, Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if n.Kind != KindSubtask {
			continue
		}
		if math.Abs(np.Finish[n.ID]-pre.Finish[n.ID]) > 1e-9 {
			t.Fatalf("subtask %q finishes differ: %v vs %v", n.Name, np.Finish[n.ID], pre.Finish[n.ID])
		}
	}
	if pre.Preemptions(g) != 0 {
		t.Fatalf("uncontended chain preempted %d times", pre.Preemptions(g))
	}
}

// TestConsistencyMultihopMeshMatchesContentionFree: on a full mesh no two
// messages share a link unless they connect the same ordered processor
// pair; for a join of two single-message producers the multihop schedule
// must equal the contention-free platform model with the same costs.
func TestConsistencyMultihopMeshMatchesContentionFree(t *testing.T) {
	b := NewGraphBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 12)
	join := b.AddSubtask("join", 10)
	b.Connect(u, join, 7)
	b.Connect(v, join, 5)
	b.SetEndToEnd(join, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := MeshNetwork(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distribute(g, sys, PURE(), CCNE())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchedulerConfig{RespectRelease: true}
	free, err := Schedule(g, sys, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Schedule(g, sys, res, SchedulerConfig{RespectRelease: true, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if n.Kind != KindSubtask {
			continue
		}
		if math.Abs(free.Finish[n.ID]-multi.Finish[n.ID]) > 1e-9 {
			t.Fatalf("subtask %q: contention-free %v vs mesh channels %v",
				n.Name, free.Finish[n.ID], multi.Finish[n.ID])
		}
	}
}

// TestConsistencyImproveIdentityWhenOptimal: on a single isolated subtask
// the distribution is trivially optimal; the improver must return it
// unchanged.
func TestConsistencyImproveIdentityWhenOptimal(t *testing.T) {
	b := NewGraphBuilder()
	x := b.AddSubtask("x", 10)
	b.SetEndToEnd(x, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distribute(g, sys, PURE(), CCNE())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Improve(g, sys, res, ImproveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Best != out.Initial {
		t.Fatalf("optimal distribution changed: %v -> %v", out.Initial, out.Best)
	}
	if out.Distribution.Relative[x] != res.Relative[x] {
		t.Fatal("window changed on optimal distribution")
	}
}
