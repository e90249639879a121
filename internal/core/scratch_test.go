package core

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// TestDistributeScratchMatchesFresh carries one Scratch and one recycled
// Result across a mixed stream of graphs, metrics and system sizes — the
// exact reuse pattern of the experiment engine's pooled workers — and
// checks every distribution bit-for-bit against a fresh share-nothing run.
// Pooled state (DP tables, generation stamps, candidate memos, reachability
// marks) must be invisible in the output.
func TestDistributeScratchMatchesFresh(t *testing.T) {
	sc := NewScratch()
	var recycle *Result
	metrics := []Metric{NORM(), PURE(), THRES(1, 1.25), ADAPT(1.25)}
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 8} {
			sys, err := platform.New(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range metrics {
				d := Distributor{Metric: m, Estimator: CCNE()}
				want, err := d.Distribute(g, sys)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.DistributeScratch(g, sys, recycle, sc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d procs, %s: scratch distribution differs from fresh run",
						seed, n, m.Name())
				}
				// Hand the result back as the next run's recycle target,
				// as the engine's workers do once it has been measured.
				recycle = got
			}
		}
	}
}

// TestDistributeScratchRecyclesStorage pins the recycling contract: the
// returned Result is the recycle argument itself, fully overwritten.
func TestDistributeScratchRecyclesStorage(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	d := Distributor{Metric: PURE(), Estimator: CCNE()}
	first, err := d.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.DistributeScratch(g, sys, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != first {
		t.Error("DistributeScratch did not return the recycled Result")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recycled distribution differs from fresh run")
	}
}

// scratchStep is one DistributeScratch call of a shared-scratch sequence.
type scratchStep struct {
	name string
	g    *taskgraph.Graph
	sys  *platform.System
}

// runScratchSequence drives one scratch through the steps, checking every
// output against a cold Distribute on the same inputs.
func runScratchSequence(t *testing.T, d Distributor, steps []scratchStep) {
	t.Helper()
	sc := NewScratch()
	for _, step := range steps {
		got, err := d.DistributeScratch(step.g, step.sys, nil, sc)
		if err != nil {
			t.Fatalf("%s: scratch: %v", step.name, err)
		}
		want, err := d.Distribute(step.g, step.sys)
		if err != nil {
			t.Fatalf("%s: cold: %v", step.name, err)
		}
		if diff := sameResult(got, want); diff != "" {
			t.Fatalf("%s: scratch run differs from cold run: %s", step.name, diff)
		}
	}
}

// TestScratchSequenceMatchesCold carries one scratch across identical
// reruns, changed execution times, changed deadlines and changed system
// sizes of structurally identical graphs — the inputs most likely to let
// a stale memo or row-width cache leak between runs — and checks every
// step bit-for-bit against a cold run. The two THRES variants share a
// Name(), so state keyed by metric name would also show here.
func TestScratchSequenceMatchesCold(t *testing.T) {
	sys4, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	sys8, err := platform.New(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range equivalenceGraphs(t, 7) {
		// One subtask's execution time drifts; one end-to-end deadline
		// tightens.
		sub := taskgraph.None
		for _, n := range g.Nodes() {
			if n.Kind == taskgraph.KindSubtask && len(g.Succ(n.ID)) > 0 && len(g.Pred(n.ID)) > 0 {
				sub = n.ID
				break
			}
		}
		gCost := g.Clone()
		if sub != taskgraph.None {
			if err := gCost.SetCost(sub, g.Node(sub).Cost*1.5); err != nil {
				t.Fatal(err)
			}
		}
		gDL := g.Clone()
		out := g.Outputs()[0]
		if err := gDL.SetEndToEnd(out, g.Node(out).EndToEnd*0.9); err != nil {
			t.Fatal(err)
		}
		for _, m := range []Metric{NORM(), PURE(), THRES(1, 1.25), THRES(2, 1.25), ADAPT(1.25)} {
			d := Distributor{Metric: m, Estimator: CCNE()}
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				runScratchSequence(t, d, []scratchStep{
					{"cold", g, sys4},
					{"identical rerun", g, sys4},
					{"changed exec time", gCost, sys4},
					{"changed exec time rerun", gCost, sys4},
					{"changed deadline", gDL, sys4},
					{"changed system size", g, sys8},
					{"back to original", g, sys4},
				})
			})
		}
	}
}

// TestScratchMetricSwitchMatchesCold switches metrics on one scratch and
// graph, including THRES(1, f) → THRES(2, f), which share a Name(). Every
// step must still match a cold run.
func TestScratchMetricSwitchMatchesCold(t *testing.T) {
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	g := equivalenceGraphs(t, 11)["random"]
	sc := NewScratch()
	for _, m := range []Metric{THRES(1, 1.25), THRES(2, 1.25), THRES(1, 1.25), ADAPT(1.25), PURE()} {
		d := Distributor{Metric: m, Estimator: CCNE()}
		got, err := d.DistributeScratch(g, sys, nil, sc)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		want, err := d.Distribute(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(got, want); diff != "" {
			t.Fatalf("after switch to %s: %s", m.Name(), diff)
		}
	}
}

// TestScratchArcChangeMatchesCold carries one scratch across a structural
// change: an added arc (which also appends a message node) and back.
func TestScratchArcChangeMatchesCold(t *testing.T) {
	build := func(extra bool) *taskgraph.Graph {
		b := taskgraph.NewBuilder()
		a1 := b.AddSubtask("a1", 10)
		a2 := b.AddSubtask("a2", 20)
		a3 := b.AddSubtask("a3", 10)
		b1 := b.AddSubtask("b1", 15)
		b2 := b.AddSubtask("b2", 15)
		b.Connect(a1, a2, 2)
		b.Connect(a2, a3, 2)
		b.Connect(b1, b2, 2)
		if extra {
			b.Connect(a1, b2, 1)
		}
		b.SetEndToEnd(a3, 200)
		b.SetEndToEnd(b2, 180)
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sys, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d := Distributor{Metric: ADAPT(1.25), Estimator: CCNE()}
	runScratchSequence(t, d, []scratchStep{
		{"without extra arc", build(false), sys},
		{"with extra arc", build(true), sys},
		{"without again", build(false), sys},
	})
}

// TestScratchGenerationWrap carries one scratch across the wrap of the
// 32-bit DP generation counter. A run on a larger graph leaves stamped
// rows beyond a smaller graph's length; the counter is then moved to its
// last value, as 2^32 runs later, so the next run's generations restart
// from 1. The wrap must reset every stamp in the backing, the spare rows
// included, and every run must still match a cold one.
func TestScratchGenerationWrap(t *testing.T) {
	if size := unsafe.Sizeof(dpRow{}); size != 32 {
		t.Errorf("dpRow is %d bytes, want 32", size)
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	big := equivalenceGraphs(t, 6)["random"]
	small := equivalenceGraphs(t, 5)["random"]
	if big.NumNodes() <= small.NumNodes() {
		t.Fatalf("precondition: %d nodes, want more than %d", big.NumNodes(), small.NumNodes())
	}
	d := Distributor{Metric: PURE(), Estimator: CCNE()}
	sc := NewScratch()
	for i, g := range []*taskgraph.Graph{big, small, small, big} {
		if i == 2 {
			sc.st.gen = math.MaxUint32
		}
		got, err := d.DistributeScratch(g, sys, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Distribute(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(got, want); diff != "" {
			t.Fatalf("run %d: %s", i, diff)
		}
		if i != 2 {
			continue
		}
		rows := sc.st.rows
		for p, r := range rows[len(rows):cap(rows)] {
			if r.gen != 0 {
				t.Fatalf("spare row %d kept generation %d across the wrap", len(rows)+p, r.gen)
			}
		}
		if sc.st.gen == 0 || sc.st.gen > 1<<20 {
			t.Fatalf("generation after the wrap = %d, want a small restarted count", sc.st.gen)
		}
	}
}
