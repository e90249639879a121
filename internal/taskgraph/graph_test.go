package taskgraph

import (
	"errors"
	"math"
	"testing"
)

// diamond builds the canonical 4-subtask diamond:
//
//	a -> b -> d
//	a -> c -> d
//
// with costs a=10, b=20, c=5, d=10 and all message sizes 3.
func diamond(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	b := NewBuilder()
	a := b.AddSubtask("a", 10)
	bb := b.AddSubtask("b", 20)
	c := b.AddSubtask("c", 5)
	d := b.AddSubtask("d", 10)
	b.Connect(a, bb, 3)
	b.Connect(a, c, 3)
	b.Connect(bb, d, 3)
	b.Connect(c, d, 3)
	g, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize diamond: %v", err)
	}
	return g, map[string]NodeID{"a": a, "b": bb, "c": c, "d": d}
}

// chain builds a linear chain of n subtasks with the given costs.
func chain(t *testing.T, costs ...float64) *Graph {
	t.Helper()
	b := NewBuilder()
	var prev NodeID = None
	for i, c := range costs {
		id := b.AddSubtask("", c)
		if i > 0 {
			b.Connect(prev, id, 1)
		}
		prev = id
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize chain: %v", err)
	}
	return g
}

func TestBuilderCounts(t *testing.T) {
	g, _ := diamond(t)
	if got := g.NumSubtasks(); got != 4 {
		t.Errorf("NumSubtasks = %d, want 4", got)
	}
	if got := g.NumMessages(); got != 4 {
		t.Errorf("NumMessages = %d, want 4", got)
	}
	if got := g.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d, want 8", got)
	}
}

func TestMessageMaterialization(t *testing.T) {
	g, ids := diamond(t)
	// a's successors must all be messages, each with exactly one pred/succ.
	for _, m := range g.Succ(ids["a"]) {
		n := g.Node(m)
		if n.Kind != KindMessage {
			t.Fatalf("successor of a is %v, want message", n.Kind)
		}
		if len(g.Pred(m)) != 1 || len(g.Succ(m)) != 1 {
			t.Fatalf("message %v has %d preds, %d succs", m, len(g.Pred(m)), len(g.Succ(m)))
		}
		if n.Size != 3 {
			t.Fatalf("message size = %v, want 3", n.Size)
		}
	}
}

func TestInputsOutputs(t *testing.T) {
	g, ids := diamond(t)
	in := g.Inputs()
	if len(in) != 1 || in[0] != ids["a"] {
		t.Errorf("Inputs = %v, want [a]", in)
	}
	out := g.Outputs()
	if len(out) != 1 || out[0] != ids["d"] {
		t.Errorf("Outputs = %v, want [d]", out)
	}
}

func TestTopoOrderRespectsArcs(t *testing.T) {
	g, _ := diamond(t)
	pos := make(map[NodeID]int, g.NumNodes())
	for i, id := range g.TopoOrder() {
		pos[id] = i
	}
	if len(pos) != g.NumNodes() {
		t.Fatalf("topo order covers %d nodes, want %d", len(pos), g.NumNodes())
	}
	for _, n := range g.Nodes() {
		for _, s := range g.Succ(n.ID) {
			if pos[n.ID] >= pos[s] {
				t.Fatalf("topo order violates arc %v -> %v", n.ID, s)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder()
	x := b.AddSubtask("x", 1)
	y := b.AddSubtask("y", 1)
	z := b.AddSubtask("z", 1)
	b.Connect(x, y, 1)
	b.Connect(y, z, 1)
	b.Connect(z, x, 1)
	if _, err := b.Finalize(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Finalize = %v, want ErrCycle", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder().Finalize(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("got %v, want ErrEmpty", err)
		}
	})
	t.Run("self arc", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		b.Connect(x, x, 1)
		if _, err := b.Finalize(); !errors.Is(err, ErrSelfArc) {
			t.Fatalf("got %v, want ErrSelfArc", err)
		}
	})
	t.Run("duplicate arc", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		y := b.AddSubtask("y", 1)
		b.Connect(x, y, 1)
		b.Connect(x, y, 2)
		if _, err := b.Finalize(); !errors.Is(err, ErrDupArc) {
			t.Fatalf("got %v, want ErrDupArc", err)
		}
	})
	t.Run("unknown node", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		b.Connect(x, NodeID(99), 1)
		if _, err := b.Finalize(); !errors.Is(err, ErrBadND) {
			t.Fatalf("got %v, want ErrBadND", err)
		}
	})
	t.Run("negative cost", func(t *testing.T) {
		b := NewBuilder()
		b.AddSubtask("x", -1)
		if _, err := b.Finalize(); !errors.Is(err, ErrNegativeCost) {
			t.Fatalf("got %v, want ErrNegativeCost", err)
		}
	})
	t.Run("negative size", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		y := b.AddSubtask("y", 1)
		b.Connect(x, y, -2)
		if _, err := b.Finalize(); !errors.Is(err, ErrNegativeCost) {
			t.Fatalf("got %v, want ErrNegativeCost", err)
		}
	})
	t.Run("connect to message", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		y := b.AddSubtask("y", 1)
		m := b.Connect(x, y, 1)
		z := b.AddSubtask("z", 1)
		b.Connect(m, z, 1)
		if _, err := b.Finalize(); !errors.Is(err, ErrNotSubtask) {
			t.Fatalf("got %v, want ErrNotSubtask", err)
		}
	})
	t.Run("release on non-input", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		y := b.AddSubtask("y", 1)
		b.Connect(x, y, 1)
		b.SetRelease(y, 5)
		if _, err := b.Finalize(); err == nil {
			t.Fatal("expected error for release on non-input subtask")
		}
	})
	t.Run("deadline on non-output", func(t *testing.T) {
		b := NewBuilder()
		x := b.AddSubtask("x", 1)
		y := b.AddSubtask("y", 1)
		b.Connect(x, y, 1)
		b.SetEndToEnd(x, 50)
		if _, err := b.Finalize(); err == nil {
			t.Fatal("expected error for end-to-end deadline on non-output subtask")
		}
	})
}

func TestDepth(t *testing.T) {
	g, _ := diamond(t)
	if got := g.Depth(); got != 3 {
		t.Errorf("diamond Depth = %d, want 3", got)
	}
	c := chain(t, 1, 1, 1, 1, 1)
	if got := c.Depth(); got != 5 {
		t.Errorf("chain Depth = %d, want 5", got)
	}
}

func TestLevel(t *testing.T) {
	g, ids := diamond(t)
	level := g.Level()
	want := map[string]int{"a": 1, "b": 2, "c": 2, "d": 3}
	for name, id := range ids {
		if level[id] != want[name] {
			t.Errorf("level(%s) = %d, want %d", name, level[id], want[name])
		}
	}
	// Messages share the level of their producer.
	for _, m := range g.Succ(ids["a"]) {
		if level[m] != 1 {
			t.Errorf("level(message from a) = %d, want 1", level[m])
		}
	}
}

func TestTotalWork(t *testing.T) {
	g, _ := diamond(t)
	if got := g.TotalWork(); got != 45 {
		t.Errorf("TotalWork = %v, want 45", got)
	}
}

func TestLongestPathExecOnly(t *testing.T) {
	g, _ := diamond(t)
	// a(10) -> b(20) -> d(10) = 40
	if got := g.LongestPath(ExecCost); got != 40 {
		t.Errorf("LongestPath(ExecCost) = %v, want 40", got)
	}
}

func TestLongestPathWithMessages(t *testing.T) {
	g, _ := diamond(t)
	withComm := func(n Node) float64 {
		if n.Kind == KindMessage {
			return n.Size
		}
		return n.Cost
	}
	// a(10) + m(3) + b(20) + m(3) + d(10) = 46
	if got := g.LongestPath(withComm); got != 46 {
		t.Errorf("LongestPath(withComm) = %v, want 46", got)
	}
}

func TestLongestPathTo(t *testing.T) {
	g, ids := diamond(t)
	to := g.LongestPathTo(ExecCost)
	cases := map[string]float64{"a": 10, "b": 30, "c": 15, "d": 40}
	for name, want := range cases {
		if got := to[ids[name]]; got != want {
			t.Errorf("LongestPathTo(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestLongestPathToHonoursRelease(t *testing.T) {
	b := NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Connect(x, y, 1)
	b.SetRelease(x, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	to := g.LongestPathTo(ExecCost)
	if to[y] != 120 {
		t.Errorf("LongestPathTo(y) = %v, want 120 (release 100 + 10 + 10)", to[y])
	}
}

func TestLongestPathFrom(t *testing.T) {
	g, ids := diamond(t)
	from := g.LongestPathFrom(ExecCost)
	cases := map[string]float64{"a": 40, "b": 30, "c": 15, "d": 10}
	for name, want := range cases {
		if got := from[ids[name]]; got != want {
			t.Errorf("LongestPathFrom(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestAvgParallelism(t *testing.T) {
	g, _ := diamond(t)
	// total 45 / longest 40 = 1.125
	if got := g.AvgParallelism(); got != 45.0/40.0 {
		t.Errorf("AvgParallelism = %v, want %v", got, 45.0/40.0)
	}
	c := chain(t, 5, 5, 5)
	if got := c.AvgParallelism(); got != 1 {
		t.Errorf("chain AvgParallelism = %v, want 1", got)
	}
}

func TestMeanSubtaskCost(t *testing.T) {
	g, _ := diamond(t)
	if got := g.MeanSubtaskCost(); got != 45.0/4.0 {
		t.Errorf("MeanSubtaskCost = %v, want %v", got, 45.0/4.0)
	}
}

func TestMeanMessageSize(t *testing.T) {
	g, _ := diamond(t)
	if got := g.MeanMessageSize(); got != 3 {
		t.Errorf("MeanMessageSize = %v, want 3", got)
	}
}

func TestAssignDeadlinesByOLR(t *testing.T) {
	g, ids := diamond(t)
	g.AssignDeadlinesByOLR(1.5)
	want := 1.5 * 40 // longest exec path into d
	if got := g.Node(ids["d"]).EndToEnd; got != want {
		t.Errorf("EndToEnd(d) = %v, want %v", got, want)
	}
	// Non-outputs must stay unset.
	if got := g.Node(ids["a"]).EndToEnd; got != 0 {
		t.Errorf("EndToEnd(a) = %v, want 0", got)
	}
}

func TestAssignDeadlinesByTotalWork(t *testing.T) {
	g, ids := diamond(t)
	g.AssignDeadlinesByTotalWork(2)
	if got := g.Node(ids["d"]).EndToEnd; got != 90 {
		t.Errorf("EndToEnd(d) = %v, want 90", got)
	}
}

func TestSetEndToEndErrors(t *testing.T) {
	g, ids := diamond(t)
	if err := g.SetEndToEnd(ids["a"], 10); err == nil {
		t.Error("SetEndToEnd on non-output should fail")
	}
	if err := g.SetEndToEnd(NodeID(999), 10); !errors.Is(err, ErrBadND) {
		t.Errorf("SetEndToEnd(999) = %v, want ErrBadND", err)
	}
	if err := g.SetEndToEnd(ids["d"], 75); err != nil {
		t.Errorf("SetEndToEnd(d) = %v, want nil", err)
	}
	if got := g.Node(ids["d"]).EndToEnd; got != 75 {
		t.Errorf("EndToEnd(d) = %v, want 75", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := diamond(t)
	c := g.Clone()
	if err := c.SetEndToEnd(ids["d"], 123); err != nil {
		t.Fatal(err)
	}
	if g.Node(ids["d"]).EndToEnd == 123 {
		t.Error("mutating clone affected original")
	}
	if c.NumNodes() != g.NumNodes() || c.Depth() != g.Depth() {
		t.Error("clone structure differs from original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, ids := diamond(t)
	g.AssignDeadlinesByOLR(1.5)
	_ = ids
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	g2, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if g2.NumSubtasks() != g.NumSubtasks() || g2.NumMessages() != g.NumMessages() {
		t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
			g2.NumSubtasks(), g2.NumMessages(), g.NumSubtasks(), g.NumMessages())
	}
	if g2.TotalWork() != g.TotalWork() {
		t.Errorf("round trip changed total work: %v vs %v", g2.TotalWork(), g.TotalWork())
	}
	if g2.Depth() != g.Depth() {
		t.Errorf("round trip changed depth: %d vs %d", g2.Depth(), g.Depth())
	}
	// End-to-end deadlines preserved by name.
	var d2 float64
	for _, n := range g2.Nodes() {
		if n.Name == "d" {
			d2 = n.EndToEnd
		}
	}
	if d2 != 60 {
		t.Errorf("round trip deadline on d = %v, want 60", d2)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"bad json", `{`},
		{"duplicate name", `{"subtasks":[{"name":"a","cost":1},{"name":"a","cost":2}],"arcs":[]}`},
		{"unknown from", `{"subtasks":[{"name":"a","cost":1}],"arcs":[{"from":"zz","to":"a","size":1}]}`},
		{"unknown to", `{"subtasks":[{"name":"a","cost":1}],"arcs":[{"from":"a","to":"zz","size":1}]}`},
		{"empty", `{"subtasks":[],"arcs":[]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode([]byte(c.data)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestDOTContainsNodesAndEdges(t *testing.T) {
	g, _ := diamond(t)
	dot := g.DOT()
	for _, want := range []string{`"a"`, `"b"`, `"c"`, `"d"`, `"a" -> "b"`, `"c" -> "d"`, "digraph"} {
		if !contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestKindString(t *testing.T) {
	if KindSubtask.String() != "subtask" || KindMessage.String() != "message" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestGeneratedNames(t *testing.T) {
	b := NewBuilder()
	x := b.AddSubtask("", 1)
	if got := b.g.nodes[x].Name; got != "t0" {
		t.Errorf("generated name = %q, want t0", got)
	}
}

func TestBuilderSettersOnBadNodes(t *testing.T) {
	b := NewBuilder()
	b.AddSubtask("x", 1)
	b.SetRelease(NodeID(42), 5)
	if _, err := b.Finalize(); !errors.Is(err, ErrBadND) {
		t.Fatalf("SetRelease on unknown node: %v", err)
	}
	b2 := NewBuilder()
	b2.AddSubtask("x", 1)
	b2.SetEndToEnd(NodeID(42), 5)
	if _, err := b2.Finalize(); !errors.Is(err, ErrBadND) {
		t.Fatalf("SetEndToEnd on unknown node: %v", err)
	}
}

func TestAvgParallelismEmptyWork(t *testing.T) {
	b := NewBuilder()
	b.AddSubtask("z", 0) // zero-cost subtask: longest path 0
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if p := g.AvgParallelism(); p != 0 {
		t.Fatalf("zero-work parallelism = %v, want 0", p)
	}
}

// TestNonFiniteCostRefused: a NaN or infinite execution time or message
// size is refused like a negative one, by AddSubtask and Connect (at
// Finalize) and by SetCost, so no graph's AvgParallelism or schedule ever
// sees one.
func TestNonFiniteCostRefused(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := NewBuilder()
		b.AddSubtask("a", bad)
		if _, err := b.Finalize(); !errors.Is(err, ErrNegativeCost) {
			t.Errorf("AddSubtask cost %v: got %v, want ErrNegativeCost", bad, err)
		}

		b = NewBuilder()
		x, y := b.AddSubtask("x", 1), b.AddSubtask("y", 1)
		b.Connect(x, y, bad)
		if _, err := b.Finalize(); !errors.Is(err, ErrNegativeCost) {
			t.Errorf("Connect size %v: got %v, want ErrNegativeCost", bad, err)
		}

		b = NewBuilder()
		x, y = b.AddSubtask("x", 1), b.AddSubtask("y", 1)
		m := b.Connect(x, y, 1)
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []NodeID{x, m} {
			if err := g.SetCost(id, bad); !errors.Is(err, ErrNegativeCost) {
				t.Errorf("SetCost(%d, %v): got %v, want ErrNegativeCost", id, bad, err)
			}
		}
		if p := g.AvgParallelism(); p != 1 {
			t.Errorf("after refused SetCost(%v): AvgParallelism %v, want 1", bad, p)
		}
	}
}
