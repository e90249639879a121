package scheduler

import (
	"testing"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
)

// TestSchedulerRunZeroAlloc pins the steady-state allocation contract of the
// pooled dispatch path: with schedule recycling on, a warmed-up Scratch runs
// the EDF list scheduler — in both bus modes, and with the preemptive
// re-simulation — without allocating. The producer cache, dispatch order,
// presorted message orders, bounded start-time evaluation and the
// preemptive event and segment buffers all write into Scratch-owned
// buffers; a fresh allocation on the hot path fails this guard.
func TestSchedulerRunZeroAlloc(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res := func(sys *platform.System) *core.Result {
		r, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}.Distribute(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	modes := []struct {
		name       string
		opts       []platform.Option
		preemptive bool
	}{
		{"uncontended", nil, false},
		{"contended-bus", []platform.Option{platform.WithBusContention()}, false},
		{"preemptive", nil, true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			sys, err := platform.New(4, mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			r := res(sys)
			cfg := Config{RespectRelease: true, Policy: PolicyEDF, Preemptive: mode.preemptive}
			sc := NewScratch()
			for warm := 0; warm < 2; warm++ {
				if _, err := sc.Run(g, sys, r, cfg); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := sc.Run(g, sys, r, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Scratch.Run allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestRunMultihopWarmZeroAlloc pins the same contract for runs over a
// multihop network: once warm, a Scratch costs candidates against stamped
// tentative link times, slices every committed hop out of its one hop
// backing and refills its cleared Hops map, all without allocating.
func TestRunMultihopWarmZeroAlloc(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bus", "ring", "star", "mesh"} {
		t.Run(name, func(t *testing.T) {
			sys, err := platform.New(8)
			if err != nil {
				t.Fatal(err)
			}
			net, err := channel.Builders()[name](8, 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCHOP(net)}.Distribute(g, sys)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{RespectRelease: true, Policy: PolicyEDF, Network: net}
			sc := NewScratch()
			for warm := 0; warm < 2; warm++ {
				if _, err := sc.Run(g, sys, r, cfg); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := sc.Run(g, sys, r, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm Scratch.Run over a network allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
