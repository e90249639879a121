package scheduler

import (
	"errors"
	"testing"
	"testing/quick"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func TestPinnedPlacementHonored(t *testing.T) {
	// Two independent tasks, both pinned to processor 1: they must
	// serialize there even though processor 0 is idle.
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Pin(x, 1)
	b.Pin(y, 1)
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
	if sched.Proc[x] != 1 || sched.Proc[y] != 1 {
		t.Fatalf("pinned tasks on procs %d, %d, want both on 1", sched.Proc[x], sched.Proc[y])
	}
	if !approx(sched.Makespan, 20) {
		t.Fatalf("makespan = %v, want 20 (serialized on the pinned processor)", sched.Makespan)
	}
	if err := Validate(g, s, res, sched, Config{}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPinnedForcesCommunication(t *testing.T) {
	// Producer pinned to 0, consumer pinned to 1: the message must cross
	// the bus even though co-location would be free.
	b := taskgraph.NewBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 10)
	b.Connect(u, v, 7)
	b.Pin(u, 0)
	b.Pin(v, 1)
	b.SetEndToEnd(v, 100)
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
	if !approx(sched.Start[v], 17) {
		t.Fatalf("v starts %v, want 17 (10 exec + 7 comm)", sched.Start[v])
	}
}

// models runs one input through Run under each model: the bus, preemptive
// EDF and a ring spanning the platform.
func models(t *testing.T) map[string]func(*taskgraph.Graph, *platform.System, *core.Result) error {
	run := func(cfg func(*platform.System) Config) func(*taskgraph.Graph, *platform.System, *core.Result) error {
		return func(g *taskgraph.Graph, s *platform.System, res *core.Result) error {
			_, err := Run(g, s, res, cfg(s))
			return err
		}
	}
	return map[string]func(*taskgraph.Graph, *platform.System, *core.Result) error{
		"bus":        run(func(*platform.System) Config { return Config{} }),
		"preemptive": run(func(*platform.System) Config { return Config{Preemptive: true} }),
		"ring": run(func(s *platform.System) Config {
			net, err := channel.Ring(s.NumProcs(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Network: net}
		}),
	}
}

// TestPinnedOutOfRange checks that every model refuses a pin beyond
// the platform with ErrBadPin.
func TestPinnedOutOfRange(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	b.Pin(x, 5)
	b.SetEndToEnd(x, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	for name, run := range models(t) {
		if err := run(g, s, res); !errors.Is(err, ErrBadPin) {
			t.Errorf("%s: got %v, want ErrBadPin", name, err)
		}
	}
}

// TestAnnotationSizeMismatch checks that every model refuses a
// distribution result made for another graph with ErrBadSize.
func TestAnnotationSizeMismatch(t *testing.T) {
	b := taskgraph.NewBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 10)
	b.Connect(u, v, 2)
	b.SetEndToEnd(v, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	short := *res
	short.Absolute = res.Absolute[:len(res.Absolute)-1]
	short.Release = res.Release[:len(res.Release)-1]
	for name, run := range models(t) {
		if err := run(g, s, &short); !errors.Is(err, ErrBadSize) {
			t.Errorf("%s: got %v, want ErrBadSize", name, err)
		}
	}
}

func TestValidateCatchesPinViolation(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	b.Pin(x, 1)
	b.SetEndToEnd(x, 100)
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
	bad := *sched
	bad.Proc = append([]int(nil), sched.Proc...)
	bad.Proc[x] = 0
	if err := Validate(g, s, res, &bad, Config{}); err == nil {
		t.Fatal("pin violation not caught")
	}
}

// Property: partially pinned random workloads schedule validly.
func TestPropertyPinnedWorkloadsValid(t *testing.T) {
	wcfg := generator.Default(generator.MDET)
	wcfg.PinnedFraction = 0.5
	wcfg.PinnedProcs = 2
	f := func(seed uint64) bool {
		g, err := generator.Random(wcfg, rng.New(seed))
		if err != nil {
			return false
		}
		s, err := platform.New(4)
		if err != nil {
			return false
		}
		res, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}.Distribute(g, s)
		if err != nil {
			return false
		}
		cfg := Config{RespectRelease: true}
		sched, err := Run(g, s, res, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := Validate(g, s, res, sched, cfg); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
