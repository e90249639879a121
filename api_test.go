package deadlinedist

import (
	"strings"
	"testing"
)

// TestPublicPipeline drives the full paper pipeline through the facade:
// build a graph, distribute deadlines, schedule, measure lateness.
func TestPublicPipeline(t *testing.T) {
	b := NewGraphBuilder()
	sense := b.AddSubtask("sense", 10)
	plan := b.AddSubtask("plan", 20)
	act := b.AddSubtask("act", 10)
	b.Connect(sense, plan, 5)
	b.Connect(plan, act, 5)
	b.SetEndToEnd(act, 120)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distribute(g, sys, ADAPT(1.25), CCNE())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Schedule(g, sys, res, SchedulerConfig{RespectRelease: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(g, sys, res, sched, SchedulerConfig{RespectRelease: true}); err != nil {
		t.Fatal(err)
	}
	if l := sched.MaxLateness(g, res); l > 0 {
		t.Errorf("feasible pipeline has positive max lateness %v", l)
	}
	if out := Gantt(g, sys, sched, 40); !strings.Contains(out, "P0") {
		t.Errorf("Gantt output malformed:\n%s", out)
	}
}

func TestPublicGenerators(t *testing.T) {
	src := NewRandomSource(7)
	g, err := RandomGraph(DefaultWorkload(MDET), src)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSubtasks() < 40 || g.NumSubtasks() > 60 {
		t.Errorf("random graph has %d subtasks", g.NumSubtasks())
	}
	sg, err := StructuredGraph(StructuredConfig{
		Workload: DefaultWorkload(LDET),
		Shape:    ShapeForkJoin,
		Depth:    3,
		Width:    4,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumSubtasks() != 16 {
		t.Errorf("fork-join graph has %d subtasks, want 16", sg.NumSubtasks())
	}
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGraph(data); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBaselines(t *testing.T) {
	b := NewGraphBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Connect(x, y, 1)
	b.SetEndToEnd(y, 60)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{UltimateDeadline(), EffectiveDeadline(), EqualSlack(), EqualFlexibility()} {
		res, err := s.Assign(g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Absolute[y] > 60+1e-9 {
			t.Errorf("%s: output deadline %v exceeds end-to-end 60", s.Name(), res.Absolute[y])
		}
	}
}

func TestPublicExperiment(t *testing.T) {
	cfg := DefaultExperiment(MDET)
	cfg.Graphs = 4
	cfg.Sizes = []int{2, 8}
	table, err := cfg.Run("facade experiment", Slicing(PURE(), CCNE()), Baseline(EqualFlexibility()))
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Curves) != 2 {
		t.Fatalf("curves = %d", len(table.Curves))
	}
	if !strings.Contains(table.String(), "PURE/CCNE") {
		t.Error("table missing slicing curve")
	}
}

func TestPublicFigureRegistry(t *testing.T) {
	figs := Figures()
	for _, k := range FigureOrder() {
		if figs[k] == nil {
			t.Errorf("missing figure %q", k)
		}
	}
}

func TestPublicTopologies(t *testing.T) {
	sys, err := NewSystem(4,
		WithTopology(Ring{NumProcs: 4, PerItemCost: 1}),
		WithSpeeds([]float64{1, 1, 2, 2}),
		WithBusContention(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Topology().Name() != "ring" || !sys.BusContention() || sys.Homogeneous() {
		t.Error("options not applied through facade")
	}
	for _, topo := range []Topology{SharedBus{PerItemCost: 1}, FullMesh{PerItemCost: 1}, Star{PerItemCost: 1}} {
		if topo.CommCost(1, 1, 10) != 0 {
			t.Errorf("%s: co-located cost non-zero", topo.Name())
		}
	}
}

func TestPublicMultihop(t *testing.T) {
	b := NewGraphBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 10)
	b.Connect(u, v, 5)
	b.Pin(u, 0)
	b.Pin(v, 2)
	b.SetEndToEnd(v, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := RingNetwork(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distribute(g, sys, ADAPT(1.25), CCHOP(net))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchedulerConfig{RespectRelease: true, Network: net}
	ms, err := Schedule(g, sys, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(g, sys, res, ms, cfg); err != nil {
		t.Fatal(err)
	}
	if len(ms.Hops) != 1 {
		t.Fatalf("expected one cross-processor message with hops, got %d", len(ms.Hops))
	}
}

func TestPublicFeasibility(t *testing.T) {
	b := NewGraphBuilder()
	a := b.AddSubtask("a", 50)
	c := b.AddSubtask("c", 50)
	b.Connect(a, c, 1)
	b.SetEndToEnd(c, 60)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(8)
	if err != nil {
		t.Fatal(err)
	}
	f := CheckFeasibility(g, sys)
	if f.Feasible() {
		t.Fatal("critical-path-infeasible workload reported feasible")
	}
}

func TestPublicFacadeCompleteness(t *testing.T) {
	// Exercise the remaining facade constructors end to end.
	src := NewRandomSource(5)
	g, err := RandomGraph(DefaultWorkload(HDET), src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []CommEstimator{CCAA(), CCEXP()} {
		if _, err := Distribute(g, sys, ADAPTAblation(1.25, true, false), e); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
	for name, mk := range map[string]func(int, float64) (*Network, error){
		"bus": BusNetwork, "star": StarNetwork, "mesh": MeshNetwork,
	} {
		net, err := mk(3, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.NumProcs() != 3 {
			t.Fatalf("%s: %d procs", name, net.NumProcs())
		}
	}
	a, err := ClusterAssignment(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := ApplyAssignment(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distribute(pinned, sys, PURE(), CCKnown(a)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPeriodicHelpers(t *testing.T) {
	b := NewGraphBuilder()
	x := b.AddSubtask("x", 4)
	y := b.AddSubtask("y", 4)
	b.Connect(x, y, 1)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	tasks := []PeriodicTask{{Name: "t", Graph: g, Period: 10}, {Name: "u", Graph: g, Period: 15}}
	h, err := Hyperperiod(tasks)
	if err != nil || h != 30 {
		t.Fatalf("Hyperperiod = %d, %v; want 30", h, err)
	}
	u, err := PeriodicUtilization(tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0/10.0 + 8.0/15.0
	if u < want-1e-9 || u > want+1e-9 {
		t.Fatalf("utilization = %v, want %v", u, want)
	}
}

func TestPublicImprove(t *testing.T) {
	b := NewGraphBuilder()
	x1 := b.AddSubtask("x1", 10)
	x2 := b.AddSubtask("x2", 10)
	b.Connect(x1, x2, 1)
	b.SetEndToEnd(x2, 60)
	blocker := b.AddSubtask("blocker", 15)
	b.SetEndToEnd(blocker, 18)
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
	out, err := Improve(g, sys, res, ImproveConfig{Iterations: 8, Scheduler: SchedulerConfig{RespectRelease: true}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Best > out.Initial {
		t.Fatalf("improvement degraded: %v -> %v", out.Initial, out.Best)
	}
}

func TestPublicBenchmarkApps(t *testing.T) {
	appList := BenchmarkApps()
	if len(appList) != 3 {
		t.Fatalf("got %d benchmark apps", len(appList))
	}
	sys, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range appList {
		g, err := app.Build(NewRandomSource(1))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if !CheckFeasibility(g, sys).Feasible() {
			t.Errorf("%s infeasible on 4 processors", app.Name)
		}
	}
}
