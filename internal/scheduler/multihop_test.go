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

func ringNet(t *testing.T, n int) *channel.Network {
	t.Helper()
	net, err := channel.Ring(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestMultihopStoreAndForward(t *testing.T) {
	// Producer pinned to 0, consumer pinned to 2 on a 4-ring: the message
	// takes two hops of size×1 each.
	b := taskgraph.NewBuilder()
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
	s := sys(t, 4)
	net := ringNet(t, 4)
	res := distributed(t, g, s)
	ms, err := Run(g, s, res, Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ms.Start[v], 20) {
		t.Fatalf("v starts %v, want 20 (10 exec + 2 hops × 5)", ms.Start[v])
	}
	var msg taskgraph.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindMessage {
			msg = n.ID
		}
	}
	hops := ms.Hops[msg]
	if len(hops) != 2 {
		t.Fatalf("message reserved %d hops, want 2", len(hops))
	}
	if !approx(hops[0].Start, 10) || !approx(hops[0].End, 15) ||
		!approx(hops[1].Start, 15) || !approx(hops[1].End, 20) {
		t.Fatalf("hops = %+v, want [10,15] then [15,20]", hops)
	}
	if err := Validate(g, s, res, ms, Config{Network: net}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMultihopLinkContention(t *testing.T) {
	// Two producers on processor 0 feed a consumer pinned to 1 on a bus
	// network: the two transfers must serialize on the single link.
	b := taskgraph.NewBuilder()
	p1 := b.AddSubtask("p1", 10)
	p2 := b.AddSubtask("p2", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(p1, c, 4)
	b.Connect(p2, c, 4)
	b.Pin(p1, 0)
	b.Pin(p2, 0)
	b.Pin(c, 1)
	b.SetEndToEnd(c, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	net, err := channel.Bus(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := distributed(t, g, s)
	ms, err := Run(g, s, res, Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	// p1 and p2 serialize on proc 0 (finish 10 and 20); the transfers
	// serialize on the bus: second arrives at 20+..., consumer starts at
	// the last arrival.
	if ms.Start[c] < 24-1e-9 {
		t.Fatalf("consumer starts %v; two serialized 4-unit transfers demand >= 24", ms.Start[c])
	}
	if err := Validate(g, s, res, ms, Config{Network: net}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMultihopCoLocatedFree(t *testing.T) {
	b := taskgraph.NewBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 10)
	b.Connect(u, v, 50)
	b.SetEndToEnd(v, 200)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	net := ringNet(t, 4)
	res := distributed(t, g, s)
	ms, err := Run(g, s, res, Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler should co-locate to avoid the 50-unit transfer.
	if ms.Proc[u] != ms.Proc[v] {
		t.Fatal("consumer not co-located with producer despite huge message")
	}
	if !approx(ms.Start[v], 10) {
		t.Fatalf("v starts %v, want 10", ms.Start[v])
	}
}

func TestMultihopErrors(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	b.SetEndToEnd(x, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	res := distributed(t, g, s)
	if _, err := Run(nil, s, res, Config{Network: ringNet(t, 4)}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(g, s, res, Config{Network: ringNet(t, 8)}); !errors.Is(err, ErrBadSize) {
		t.Errorf("network/platform size mismatch: got %v, want ErrBadSize", err)
	}
	if _, err := Run(g, s, res, Config{Network: ringNet(t, 4), Preemptive: true}); !errors.Is(err, ErrPreemptiveNetwork) {
		t.Errorf("preemptive run over a network: got %v, want ErrPreemptiveNetwork", err)
	}
	if err := Validate(g, s, res, nil, Config{Network: ringNet(t, 4), Preemptive: true}); !errors.Is(err, ErrPreemptiveNetwork) {
		t.Errorf("validating a preemptive run over a network: got %v, want ErrPreemptiveNetwork", err)
	}
}

// Property: multihop schedules of random workloads validate on every
// network family.
func TestPropertyMultihopValid(t *testing.T) {
	wcfg := generator.Default(generator.MDET)
	builders := channel.Builders()
	names := []string{"bus", "ring", "star", "mesh"}
	f := func(seed uint64, which uint8) bool {
		name := names[int(which)%len(names)]
		g, err := generator.Random(wcfg, rng.New(seed))
		if err != nil {
			return false
		}
		s, err := platform.New(4)
		if err != nil {
			return false
		}
		net, err := builders[name](4, 1)
		if err != nil {
			return false
		}
		res, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCHOP(net)}.Distribute(g, s)
		if err != nil {
			return false
		}
		cfg := Config{RespectRelease: true, Network: net}
		ms, err := Run(g, s, res, cfg)
		if err != nil {
			t.Logf("seed %d %s: %v", seed, name, err)
			return false
		}
		if err := Validate(g, s, res, ms, cfg); err != nil {
			t.Logf("seed %d %s: %v", seed, name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestMultihopSlowerThanContentionFree(t *testing.T) {
	// Channel contention can only delay things relative to the
	// contention-free platform model with the same per-hop costs.
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	net, err := channel.Bus(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := distributed(t, g, s)
	free, err := Run(g, s, res, Config{RespectRelease: true})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(g, s, res, Config{RespectRelease: true, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	if multi.MaxLateness(g, res) < free.MaxLateness(g, res)-1e-9 {
		t.Errorf("contended channels (%v) beat the contention-free model (%v)",
			multi.MaxLateness(g, res), free.MaxLateness(g, res))
	}
}

func TestValidateMultihopCatchesCorruption(t *testing.T) {
	b := taskgraph.NewBuilder()
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
	s := sys(t, 4)
	net := ringNet(t, 4)
	res := distributed(t, g, s)
	ms, err := Run(g, s, res, Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	var msg taskgraph.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindMessage {
			msg = n.ID
		}
	}

	cfg := Config{Network: net}
	if err := Validate(g, s, res, ms, cfg); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	t.Run("dropped hops", func(t *testing.T) {
		bad := *ms
		bad.Hops = map[taskgraph.NodeID][]Hop{}
		if err := Validate(g, s, res, &bad, cfg); err == nil {
			t.Error("missing hops not caught")
		}
	})
	t.Run("wrong link", func(t *testing.T) {
		hops := append([]Hop(nil), ms.Hops[msg]...)
		hops[0].Link = hops[1].Link
		bad := *ms
		bad.Hops = map[taskgraph.NodeID][]Hop{msg: hops}
		if err := Validate(g, s, res, &bad, cfg); err == nil {
			t.Error("wrong route link not caught")
		}
	})
	t.Run("early departure", func(t *testing.T) {
		hops := append([]Hop(nil), ms.Hops[msg]...)
		hops[0].Start = -5
		hops[0].End = hops[0].Start + (ms.Hops[msg][0].End - ms.Hops[msg][0].Start)
		bad := *ms
		bad.Hops = map[taskgraph.NodeID][]Hop{msg: hops}
		if err := Validate(g, s, res, &bad, cfg); err == nil {
			t.Error("departure before producer not caught")
		}
	})
}
