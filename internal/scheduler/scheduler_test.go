package scheduler

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func sys(t *testing.T, n int, opts ...platform.Option) *platform.System {
	t.Helper()
	s, err := platform.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// manualResult builds a Result with the given absolute deadlines and zero
// release times, sized for g.
func manualResult(g *taskgraph.Graph, abs map[taskgraph.NodeID]float64) *core.Result {
	n := g.NumNodes()
	res := &core.Result{
		Release:       make([]float64, n),
		Relative:      make([]float64, n),
		Absolute:      make([]float64, n),
		Windowed:      make([]bool, n),
		EstimatedComm: make([]float64, n),
	}
	for id := 0; id < n; id++ {
		res.Absolute[id] = 1e9
	}
	for id, d := range abs {
		res.Absolute[id] = d
		res.Relative[id] = d
	}
	return res
}

func distributed(t *testing.T, g *taskgraph.Graph, s *platform.System) *core.Result {
	t.Helper()
	res, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}.Distribute(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChainOnOneProcessor(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 20)
	b.Connect(a, c, 5)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sched.Start[a], 0) || !approx(sched.Finish[a], 10) {
		t.Errorf("a scheduled [%v,%v], want [0,10]", sched.Start[a], sched.Finish[a])
	}
	// Same processor: no communication cost.
	if !approx(sched.Start[c], 10) || !approx(sched.Finish[c], 30) {
		t.Errorf("c scheduled [%v,%v], want [10,30]", sched.Start[c], sched.Finish[c])
	}
	if !approx(sched.Makespan, 30) {
		t.Errorf("makespan = %v, want 30", sched.Makespan)
	}
	if err := Validate(g, s, res, sched, Config{}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParallelTasksSpread(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.SetEndToEnd(x, 100)
	b.SetEndToEnd(y, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sched.Start[x], 0) || !approx(sched.Start[y], 0) {
		t.Errorf("independent tasks start at %v and %v, want both 0", sched.Start[x], sched.Start[y])
	}
	if sched.Proc[x] == sched.Proc[y] {
		t.Error("independent tasks placed on the same processor")
	}
	if !approx(sched.Makespan, 10) {
		t.Errorf("makespan = %v, want 10", sched.Makespan)
	}
}

func TestEDFOrder(t *testing.T) {
	b := taskgraph.NewBuilder()
	loose := b.AddSubtask("loose", 10)
	tight := b.AddSubtask("tight", 10)
	b.SetEndToEnd(loose, 500)
	b.SetEndToEnd(tight, 50)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{loose: 500, tight: 50})
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Order) != 2 || sched.Order[0] != tight {
		t.Errorf("dispatch order %v, want tight first", sched.Order)
	}
	if !approx(sched.Start[tight], 0) || !approx(sched.Start[loose], 10) {
		t.Errorf("tight [%v], loose [%v]: EDF violated", sched.Start[tight], sched.Start[loose])
	}
}

func TestEDFTieBreaksByNodeID(t *testing.T) {
	b := taskgraph.NewBuilder()
	first := b.AddSubtask("first", 10)
	second := b.AddSubtask("second", 10)
	b.SetEndToEnd(first, 100)
	b.SetEndToEnd(second, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{first: 100, second: 100})
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Order[0] != first {
		t.Errorf("tie not broken by NodeID: order %v", sched.Order)
	}
}

func TestCommunicationCostPaidAcrossProcessors(t *testing.T) {
	// a and b run in parallel on different processors; c needs both, so it
	// must wait for one message to cross the bus.
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	bb := b.AddSubtask("b", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 5)
	b.Connect(bb, c, 5)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Proc[a] == sched.Proc[bb] {
		t.Fatal("producers should spread over both processors")
	}
	// c is co-located with one producer and pays 5 units for the other.
	if !approx(sched.Start[c], 15) {
		t.Errorf("c starts %v, want 15 (10 finish + 5 comm)", sched.Start[c])
	}
	if err := Validate(g, s, res, sched, Config{}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestColocationAvoidsCommCost(t *testing.T) {
	// Single chain on two processors: the consumer is cheaper co-located.
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 50)
	b.SetEndToEnd(c, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Proc[a] != sched.Proc[c] {
		t.Error("consumer not co-located despite 50-unit message")
	}
	if !approx(sched.Start[c], 10) {
		t.Errorf("c starts %v, want 10", sched.Start[c])
	}
}

func TestRespectRelease(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	b.SetEndToEnd(a, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{a: 100})
	res.Release[a] = 42
	free, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(free.Start[a], 0) {
		t.Errorf("without RespectRelease start = %v, want 0", free.Start[a])
	}
	held, err := Run(g, s, res, Config{RespectRelease: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(held.Start[a], 42) {
		t.Errorf("with RespectRelease start = %v, want 42", held.Start[a])
	}
	if err := Validate(g, s, res, held, Config{RespectRelease: true}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestContendedBusSerializesMessages(t *testing.T) {
	// Three producers on three processors feed one consumer. Co-located
	// with one producer, the consumer still needs two cross messages; under
	// contention they serialize on the bus.
	b := taskgraph.NewBuilder()
	p1 := b.AddSubtask("p1", 10)
	p2 := b.AddSubtask("p2", 10)
	p3 := b.AddSubtask("p3", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(p1, c, 5)
	b.Connect(p2, c, 5)
	b.Connect(p3, c, 5)
	b.SetEndToEnd(c, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	free := sys(t, 3)
	resFree := distributed(t, g, free)
	schedFree, err := Run(g, free, resFree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(schedFree.Start[c], 15) {
		t.Errorf("contention-free c starts %v, want 15", schedFree.Start[c])
	}

	cont := sys(t, 3, platform.WithBusContention())
	resCont := distributed(t, g, cont)
	schedCont, err := Run(g, cont, resCont, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(schedCont.Start[c], 20) {
		t.Errorf("contended c starts %v, want 20 (two serialized 5-unit messages)", schedCont.Start[c])
	}
	if err := Validate(g, cont, resCont, schedCont, Config{}); err != nil {
		t.Errorf("Validate contended: %v", err)
	}
}

func TestHeterogeneousPrefersFasterFinish(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	b.SetEndToEnd(a, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2, platform.WithSpeeds([]float64{1, 4}))
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Proc[a] != 1 {
		t.Errorf("task placed on proc %d, want the 4x proc 1", sched.Proc[a])
	}
	if !approx(sched.Finish[a], 2.5) {
		t.Errorf("finish = %v, want 2.5", sched.Finish[a])
	}
}

func TestLatenessMeasures(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 1)
	b.SetEndToEnd(c, 25)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{a: 12, c: 25})
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// a finishes 10 vs deadline 12 -> -2; c finishes 20 vs 25 -> -5.
	if l := sched.Lateness(res, a); !approx(l, -2) {
		t.Errorf("lateness(a) = %v, want -2", l)
	}
	if l := sched.Lateness(res, c); !approx(l, -5) {
		t.Errorf("lateness(c) = %v, want -5", l)
	}
	if l := sched.MaxLateness(g, res); !approx(l, -2) {
		t.Errorf("MaxLateness = %v, want -2", l)
	}
	if m := sched.MissedDeadlines(g, res); m != 0 {
		t.Errorf("MissedDeadlines = %d, want 0", m)
	}
	if l := sched.EndToEndLateness(g); !approx(l, -5) {
		t.Errorf("EndToEndLateness = %v, want -5", l)
	}
	if u := sched.Utilization(g, s); !approx(u, 1) {
		t.Errorf("Utilization = %v, want 1", u)
	}
}

func TestMissedDeadlinesCounted(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 1)
	b.SetEndToEnd(c, 15)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{a: 5, c: 15})
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// a finishes 10 > 5, c finishes 20 > 15: both late.
	if m := sched.MissedDeadlines(g, res); m != 2 {
		t.Errorf("MissedDeadlines = %d, want 2", m)
	}
	if l := sched.MaxLateness(g, res); !approx(l, 5) {
		t.Errorf("MaxLateness = %v, want +5", l)
	}
}

func TestRunErrors(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	b.SetEndToEnd(a, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	if _, err := Run(nil, s, &core.Result{}, Config{}); !errors.Is(err, ErrNilInput) {
		t.Errorf("nil graph: %v, want ErrNilInput", err)
	}
	if _, err := Run(g, s, nil, Config{}); !errors.Is(err, ErrNilInput) {
		t.Errorf("nil result: %v, want ErrNilInput", err)
	}
	if _, err := Run(g, s, &core.Result{Absolute: []float64{1, 2, 3}}, Config{}); !errors.Is(err, ErrBadSize) {
		t.Errorf("mismatched result: %v, want ErrBadSize", err)
	}
}

func TestMakespanShrinksWithProcessors(t *testing.T) {
	cfg := generator.Default(generator.MDET)
	g, err := generator.Random(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16} {
		s := sys(t, n)
		res := distributed(t, g, s)
		sched, err := Run(g, s, res, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonicity from greedy placement, but the trend
		// must hold.
		if sched.Makespan > prev*1.1 {
			t.Errorf("makespan %v at N=%d far above %v at smaller N", sched.Makespan, n, prev)
		}
		prev = sched.Makespan
	}
}

// Property: schedules validate across metrics, estimators, bus modes and
// release handling on random paper workloads.
func TestPropertyScheduleValid(t *testing.T) {
	wcfg := generator.Default(generator.HDET)
	metrics := []core.Metric{core.NORM(), core.PURE(), core.ADAPT(1.25)}
	f := func(seed uint64, contended, respect bool) bool {
		g, err := generator.Random(wcfg, rng.New(seed))
		if err != nil {
			return false
		}
		var opts []platform.Option
		if contended {
			opts = append(opts, platform.WithBusContention())
		}
		s, err := platform.New(4, opts...)
		if err != nil {
			return false
		}
		cfg := Config{RespectRelease: respect}
		for _, m := range metrics {
			res, err := core.Distributor{Metric: m, Estimator: core.CCAA()}.Distribute(g, s)
			if err != nil {
				t.Logf("seed %d: distribute: %v", seed, err)
				return false
			}
			sched, err := Run(g, s, res, cfg)
			if err != nil {
				t.Logf("seed %d: run: %v", seed, err)
				return false
			}
			if err := Validate(g, s, res, sched, cfg); err != nil {
				t.Logf("seed %d %s contended=%v respect=%v: %v", seed, m.Name(), contended, respect, err)
				return false
			}
			if len(sched.Order) != g.NumSubtasks() {
				t.Logf("seed %d: scheduled %d of %d subtasks", seed, len(sched.Order), g.NumSubtasks())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	cfg := generator.Default(generator.MDET)
	g, err := generator.Random(cfg, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	res := distributed(t, g, s)
	s1, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for id := range s1.Start {
		if s1.Start[id] != s2.Start[id] || s1.Proc[id] != s2.Proc[id] {
			t.Fatalf("node %d: schedule not deterministic", id)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 5)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, s, res, sched, Config{}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := *sched
	bad.Start = append([]float64(nil), sched.Start...)
	bad.Start[c] = 0 // starts before its input arrives
	if err := Validate(g, s, res, &bad, Config{}); err == nil {
		t.Error("precedence violation not caught")
	}
	bad2 := *sched
	bad2.Proc = append([]int(nil), sched.Proc...)
	bad2.Proc[a] = 99
	if err := Validate(g, s, res, &bad2, Config{}); err == nil {
		t.Error("invalid processor not caught")
	}
}

func TestGanttOutput(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 5)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(g, s, sched, 40)
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("Gantt missing processor rows:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Errorf("Gantt missing makespan header:\n%s", out)
	}
}

// TestOverflowedStartRefused: finite costs whose sums overflow to +Inf
// leave no processor with a finite start for the third subtask on one
// processor. Every model refuses with ErrUnplaceable; the bus and network
// dispatch used to index procFree[-1] and panic.
func TestOverflowedStartRefused(t *testing.T) {
	b := taskgraph.NewBuilder()
	for _, name := range []string{"a", "b", "c"} {
		b.SetEndToEnd(b.AddSubtask(name, 1e308), 1.7e308)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := distributed(t, g, s)
	net, err := channel.Bus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, respect := range []bool{true, false} {
		cfg := Config{RespectRelease: respect}
		if _, err := Run(g, s, res, cfg); !errors.Is(err, ErrUnplaceable) {
			t.Errorf("Run respect=%v: got %v, want ErrUnplaceable", respect, err)
		}
		if _, err := Run(g, s, res, Config{RespectRelease: respect, Preemptive: true}); !errors.Is(err, ErrUnplaceable) {
			t.Errorf("preemptive respect=%v: got %v, want ErrUnplaceable", respect, err)
		}
		if _, err := Run(g, s, res, Config{RespectRelease: respect, Network: net}); !errors.Is(err, ErrUnplaceable) {
			t.Errorf("network respect=%v: got %v, want ErrUnplaceable", respect, err)
		}
	}
}
