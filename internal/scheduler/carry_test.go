package scheduler

import (
	"fmt"
	"math"
	"testing"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
)

// carryModel is one model Carries accepts: the platform options of size n
// (nil for the paper's platform) and Config.Preemptive.
type carryModel struct {
	name       string
	opts       func(n int) []platform.Option
	preemptive bool
}

// with returns fixed platform options for every size.
func with(opts ...platform.Option) func(int) []platform.Option {
	return func(int) []platform.Option { return opts }
}

// uniformSpeed gives every one of n processors speed v.
func uniformSpeed(v float64) func(n int) []platform.Option {
	return func(n int) []platform.Option {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = v
		}
		return []platform.Option{platform.WithSpeeds(speeds)}
	}
}

var carryModels = []carryModel{
	{name: "bus"},
	{name: "contended bus", opts: with(platform.WithBusContention())},
	{name: "full mesh", opts: with(platform.WithTopology(platform.FullMesh{PerItemCost: 1}))},
	{name: "contended star", opts: with(platform.WithTopology(platform.Star{PerItemCost: 1}), platform.WithBusContention())},
	{name: "preemptive EDF", preemptive: true},
	{name: "preemptive EDF at speed 0.5", opts: uniformSpeed(0.5), preemptive: true},
}

// scheduleDiff describes the first difference between two schedules,
// compared bit for bit, or returns "" when they are identical.
func scheduleDiff(a, b *Schedule) string {
	if len(a.Proc) != len(b.Proc) {
		return fmt.Sprintf("%d nodes against %d", len(a.Proc), len(b.Proc))
	}
	for i := range a.Proc {
		if a.Proc[i] != b.Proc[i] ||
			math.Float64bits(a.Start[i]) != math.Float64bits(b.Start[i]) ||
			math.Float64bits(a.Finish[i]) != math.Float64bits(b.Finish[i]) {
			return fmt.Sprintf("node %d: proc %d [%v, %v] against proc %d [%v, %v]",
				i, a.Proc[i], a.Start[i], a.Finish[i], b.Proc[i], b.Start[i], b.Finish[i])
		}
	}
	if math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) {
		return fmt.Sprintf("makespan %v against %v", a.Makespan, b.Makespan)
	}
	if len(a.Order) != len(b.Order) {
		return fmt.Sprintf("%d dispatched against %d", len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return fmt.Sprintf("dispatch step %d: %d against %d", i, a.Order[i], b.Order[i])
		}
	}
	if len(a.Segments) != len(b.Segments) {
		return fmt.Sprintf("%d segments against %d", len(a.Segments), len(b.Segments))
	}
	for i, sa := range a.Segments {
		sb := b.Segments[i]
		if sa.Node != sb.Node || sa.Proc != sb.Proc ||
			math.Float64bits(sa.Start) != math.Float64bits(sb.Start) ||
			math.Float64bits(sa.End) != math.Float64bits(sb.End) {
			return fmt.Sprintf("segment %d: %+v against %+v", i, sa, sb)
		}
	}
	return ""
}

// carrySystems builds the model's platform for every size 1 to 16, indexed
// by size.
func carrySystems(model carryModel) ([]*platform.System, error) {
	systems := make([]*platform.System, 17)
	for n := 1; n <= 16; n++ {
		var opts []platform.Option
		if model.opts != nil {
			opts = model.opts(n)
		}
		var err error
		if systems[n], err = platform.New(n, opts...); err != nil {
			return nil, err
		}
	}
	return systems, nil
}

// checkCarry distributes one random graph (40% of its inputs and outputs
// pinned to processors 0 and 1 when pinned is set) for every size n from 2
// to 16 and schedules it. Whenever the schedule on n leaves a processor
// idle, Carries must accept every size m from its used-processor count to
// 16, and Run on m must give the bit-identical schedule. It returns how
// many (n, m) pairs it compared.
func checkCarry(seed uint64, pinned, respect bool, model carryModel) (int, error) {
	wcfg := generator.Default(scaleScenarios[seed%3])
	if pinned {
		wcfg.PinnedFraction = 0.4
		wcfg.PinnedProcs = 2
	}
	g, err := generator.Random(wcfg, rng.New(seed))
	if err != nil {
		return 0, err
	}
	systems, err := carrySystems(model)
	if err != nil {
		return 0, err
	}
	cfg := Config{RespectRelease: respect, Preemptive: model.preemptive}
	d := seedDistributor(seed, core.CCAA())
	compared := 0
	for n := 2; n <= 16; n++ {
		res, err := d.Distribute(g, systems[n])
		if err != nil {
			return compared, err
		}
		s, err := Run(g, systems[n], res, cfg)
		if err != nil {
			return compared, fmt.Errorf("n=%d: %v", n, err)
		}
		used := s.ProcsUsed()
		if used >= n {
			continue
		}
		for m := max(used, 1); m <= 16; m++ {
			if m == n {
				continue
			}
			if !Carries(used, systems[n], systems[m], cfg) {
				return compared, fmt.Errorf("n=%d used=%d m=%d: Carries refused", n, used, m)
			}
			sm, err := Run(g, systems[m], res, cfg)
			if err != nil {
				return compared, fmt.Errorf("n=%d used=%d m=%d: %v", n, used, m, err)
			}
			if diff := scheduleDiff(s, sm); diff != "" {
				return compared, fmt.Errorf("n=%d used=%d m=%d: %s", n, used, m, diff)
			}
			compared++
		}
	}
	return compared, nil
}

// TestCarryPastIdleProcessors is the exactness property behind Carries:
// over random graphs and distributions, pinned workloads included, a
// schedule that leaves a processor idle is bit for bit the schedule of
// every larger platform, and of every smaller one that still has its used
// processors, on the bus, the contended bus, the full mesh, the contended
// star and under preemptive EDF at two processor speeds.
func TestCarryPastIdleProcessors(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for _, model := range carryModels {
		compared := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, pinned := range []bool{false, true} {
				for _, respect := range []bool{true, false} {
					k, err := checkCarry(seed, pinned, respect, model)
					if err != nil {
						t.Errorf("%s seed %d pinned=%v respect=%v: %v", model.name, seed, pinned, respect, err)
					}
					compared += k
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: no schedule left a processor idle; the property was never exercised", model.name)
		}
		t.Logf("%s: %d (n, m) pairs compared", model.name, compared)
	}
}

// FuzzCarryPastIdleProcessors explores the same property over
// fuzzer-chosen seeds, pinning, release modes and models.
func FuzzCarryPastIdleProcessors(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(0x07))
	f.Add(uint64(42), uint8(0x12))
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		model := carryModels[int(flags>>2)%len(carryModels)]
		pinned, respect := flags&1 != 0, flags&2 != 0
		if _, err := checkCarry(seed, pinned, respect, model); err != nil {
			t.Fatalf("%s seed %d pinned=%v respect=%v: %v", model.name, seed, pinned, respect, err)
		}
	})
}

// TestCarryExclusionsHaveCounterexamples pins, for every model Carries
// refuses, one input whose schedule on n leaves a processor idle and yet
// differs on m: each exclusion is a measured fact, not a guess.
func TestCarryExclusionsHaveCounterexamples(t *testing.T) {
	ring := func(n int) []platform.Option {
		return []platform.Option{platform.WithTopology(platform.Ring{NumProcs: n, PerItemCost: 1})}
	}
	// Speeds alternate 1 and 2: a platform one processor larger than an
	// odd-sized one adds a fast processor.
	alternating := func(n int) []platform.Option {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = float64(1 + i%2)
		}
		return []platform.Option{platform.WithSpeeds(speeds)}
	}
	cases := []struct {
		name    string
		opts    func(n int) []platform.Option
		network string
		seed    uint64
		n, m    int
	}{
		// The ring of 8 leaves processor 7 idle, yet closing the ring
		// after processor 6 shortens the routes that wrapped through 7.
		{name: "ring", opts: ring, seed: 1, n: 8, m: 7},
		// The 2x processor 5 of a 6-processor platform wins a subtask.
		{name: "heterogeneous speeds", opts: alternating, seed: 1, n: 5, m: 6},
		{name: "ring network", network: "ring", seed: 1, n: 6, m: 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func(n int) (*platform.System, Config) {
				var opts []platform.Option
				if c.opts != nil {
					opts = c.opts(n)
				}
				sys, err := platform.New(n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{RespectRelease: true}
				if c.network != "" {
					if cfg.Network, err = channel.Builders()[c.network](n, 1); err != nil {
						t.Fatal(err)
					}
				}
				return sys, cfg
			}
			g, err := generator.Random(generator.Default(scaleScenarios[c.seed%3]), rng.New(c.seed))
			if err != nil {
				t.Fatal(err)
			}
			sysN, cfgN := build(c.n)
			sysM, cfgM := build(c.m)
			res, err := seedDistributor(c.seed, core.CCAA()).Distribute(g, sysN)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Run(g, sysN, res, cfgN)
			if err != nil {
				t.Fatal(err)
			}
			used := s.ProcsUsed()
			if used >= c.n || used > c.m {
				t.Fatalf("precondition: %d of %d processors used, m=%d", used, c.n, c.m)
			}
			if Carries(used, sysN, sysM, cfgM) {
				t.Errorf("Carries accepts %s", c.name)
			}
			sm, err := Run(g, sysM, res, cfgM)
			if err != nil {
				t.Fatal(err)
			}
			if scheduleDiff(s, sm) == "" {
				t.Errorf("%s seed %d: the schedule on %d processors is also the one on %d; pin another counterexample",
					c.name, c.seed, c.n, c.m)
			}
		})
	}
}
