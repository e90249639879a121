package generator

import (
	"testing"

	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func mustStructured(t *testing.T, shape Shape, depth, width int, seed uint64) *taskgraph.Graph {
	t.Helper()
	g, err := Structured(StructuredConfig{
		Workload: Default(MDET),
		Shape:    shape,
		Depth:    depth,
		Width:    width,
	}, rng.New(seed))
	if err != nil {
		t.Fatalf("Structured(%v): %v", shape, err)
	}
	return g
}

func TestChainShape(t *testing.T) {
	g := mustStructured(t, ShapeChain, 6, 0, 1)
	if g.NumSubtasks() != 6 {
		t.Fatalf("chain subtasks = %d, want 6", g.NumSubtasks())
	}
	if g.Depth() != 6 {
		t.Fatalf("chain depth = %d, want 6", g.Depth())
	}
	if p := g.AvgParallelism(); p != 1 {
		t.Fatalf("chain parallelism = %v, want 1", p)
	}
	if len(g.Inputs()) != 1 || len(g.Outputs()) != 1 {
		t.Fatalf("chain inputs/outputs = %d/%d, want 1/1", len(g.Inputs()), len(g.Outputs()))
	}
}

func TestOutTreeShape(t *testing.T) {
	g := mustStructured(t, ShapeOutTree, 4, 2, 2)
	// 1 + 2 + 4 + 8 = 15 subtasks.
	if g.NumSubtasks() != 15 {
		t.Fatalf("out-tree subtasks = %d, want 15", g.NumSubtasks())
	}
	if g.Depth() != 4 {
		t.Fatalf("out-tree depth = %d, want 4", g.Depth())
	}
	if len(g.Inputs()) != 1 {
		t.Fatalf("out-tree inputs = %d, want 1", len(g.Inputs()))
	}
	if len(g.Outputs()) != 8 {
		t.Fatalf("out-tree outputs = %d, want 8", len(g.Outputs()))
	}
}

func TestInTreeShape(t *testing.T) {
	g := mustStructured(t, ShapeInTree, 4, 2, 3)
	if g.NumSubtasks() != 15 {
		t.Fatalf("in-tree subtasks = %d, want 15", g.NumSubtasks())
	}
	if g.Depth() != 4 {
		t.Fatalf("in-tree depth = %d, want 4", g.Depth())
	}
	if len(g.Inputs()) != 8 {
		t.Fatalf("in-tree inputs = %d, want 8", len(g.Inputs()))
	}
	if len(g.Outputs()) != 1 {
		t.Fatalf("in-tree outputs = %d, want 1", len(g.Outputs()))
	}
}

func TestForkJoinShape(t *testing.T) {
	g := mustStructured(t, ShapeForkJoin, 3, 4, 4)
	// 1 source + 3 stages × (4 parallel + 1 join) = 16.
	if g.NumSubtasks() != 16 {
		t.Fatalf("fork-join subtasks = %d, want 16", g.NumSubtasks())
	}
	if len(g.Inputs()) != 1 || len(g.Outputs()) != 1 {
		t.Fatalf("fork-join inputs/outputs = %d/%d, want 1/1", len(g.Inputs()), len(g.Outputs()))
	}
	// Depth: source, then per stage mid+join: 1 + 3×2 = 7.
	if g.Depth() != 7 {
		t.Fatalf("fork-join depth = %d, want 7", g.Depth())
	}
}

func TestLayeredShape(t *testing.T) {
	g := mustStructured(t, ShapeLayered, 5, 4, 5)
	if g.NumSubtasks() != 20 {
		t.Fatalf("layered subtasks = %d, want 20", g.NumSubtasks())
	}
	if g.Depth() != 5 {
		t.Fatalf("layered depth = %d, want 5", g.Depth())
	}
	level := g.Level()
	depth := g.Depth()
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if level[n.ID] > 1 && len(g.Pred(n.ID)) == 0 {
			t.Fatalf("layered node %v at level %d unconnected", n.ID, level[n.ID])
		}
		if level[n.ID] < depth && len(g.Succ(n.ID)) == 0 {
			t.Fatalf("layered node %v at level %d has no successor", n.ID, level[n.ID])
		}
	}
}

func TestStructuredDeadlinesAssigned(t *testing.T) {
	for _, shape := range Shapes() {
		g := mustStructured(t, shape, 3, 2, 6)
		for _, out := range g.Outputs() {
			if g.Node(out).EndToEnd <= 0 {
				t.Fatalf("%v: output %v missing deadline", shape, out)
			}
		}
	}
}

func TestStructuredDeterministic(t *testing.T) {
	for _, shape := range Shapes() {
		g1 := mustStructured(t, shape, 3, 2, 7)
		g2 := mustStructured(t, shape, 3, 2, 7)
		j1, _ := g1.MarshalJSON()
		j2, _ := g2.MarshalJSON()
		if string(j1) != string(j2) {
			t.Fatalf("%v: same seed produced different graphs", shape)
		}
	}
}

func TestStructuredErrors(t *testing.T) {
	src := rng.New(1)
	bad := []StructuredConfig{
		{Workload: Default(MDET), Shape: ShapeChain, Depth: 0},
		{Workload: Default(MDET), Shape: ShapeOutTree, Depth: 3, Width: 0},
		{Workload: Default(MDET), Shape: Shape(99), Depth: 3, Width: 2},
		{Workload: Config{}, Shape: ShapeChain, Depth: 3},
	}
	for i, cfg := range bad {
		if _, err := Structured(cfg, src); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestShapeString(t *testing.T) {
	want := map[Shape]string{
		ShapeChain:    "chain",
		ShapeOutTree:  "out-tree",
		ShapeInTree:   "in-tree",
		ShapeForkJoin: "fork-join",
		ShapeLayered:  "layered",
	}
	for shape, name := range want {
		if shape.String() != name {
			t.Errorf("%d.String() = %q, want %q", shape, shape.String(), name)
		}
	}
	if Shape(42).String() != "shape(42)" {
		t.Errorf("unknown shape string = %q", Shape(42).String())
	}
}

func TestChainSingleNode(t *testing.T) {
	g := mustStructured(t, ShapeChain, 1, 0, 9)
	if g.NumSubtasks() != 1 || g.NumMessages() != 0 {
		t.Fatalf("single-node chain: %d subtasks, %d messages", g.NumSubtasks(), g.NumMessages())
	}
}

// TestStructuredRejectsOversizedShapes: a Depth and Width over
// MaxStructuredSubtasks subtasks are refused by Validate and Structured
// alike, before the in-tree's level arithmetic can ask for a slice longer
// than memory; the bound itself is accepted.
func TestStructuredRejectsOversizedShapes(t *testing.T) {
	for _, tc := range []struct {
		cfg StructuredConfig
		ok  bool
	}{
		{StructuredConfig{Shape: ShapeInTree, Depth: 39, Width: 3}, false},
		{StructuredConfig{Shape: ShapeOutTree, Depth: 10, Width: 3}, false},
		{StructuredConfig{Shape: ShapeLayered, Depth: 101, Width: 100}, false},
		{StructuredConfig{Shape: ShapeChain, Depth: MaxStructuredSubtasks + 1}, false},
		{StructuredConfig{Shape: ShapeForkJoin, Depth: 3, Width: MaxStructuredSubtasks + 1}, false},
		{StructuredConfig{Shape: ShapeInTree, Depth: 9, Width: 3}, true},
		{StructuredConfig{Shape: ShapeLayered, Depth: 100, Width: 100}, true},
	} {
		tc.cfg.Workload = Default(MDET)
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%v depth %d width %d: Validate = %v, want ok=%v", tc.cfg.Shape, tc.cfg.Depth, tc.cfg.Width, err, tc.ok)
		}
		if !tc.ok {
			if _, err := Structured(tc.cfg, rng.New(1)); err == nil {
				t.Errorf("%v depth %d width %d: Structured accepted", tc.cfg.Shape, tc.cfg.Depth, tc.cfg.Width)
			}
		}
	}
}
