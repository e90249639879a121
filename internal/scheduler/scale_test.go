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
	"deadlinedist/internal/taskgraph"
)

// scaleModel is one run-time and message model of the scale-by-2 relation:
// whether the platform's bus is contended, a channel family for
// Config.Network ("" for the platform's bus) and Config.Preemptive.
type scaleModel struct {
	name       string
	contended  bool
	network    string
	preemptive bool
}

var scaleModels = []scaleModel{
	{name: "bus"},
	{name: "contended bus", contended: true},
	{name: "preemptive EDF", preemptive: true},
	{name: "bus network", network: "bus"},
	{name: "ring network", network: "ring"},
	{name: "star network", network: "star"},
	{name: "mesh network", network: "mesh"},
}

var scaleScenarios = []generator.Scenario{generator.LDET, generator.MDET, generator.HDET}

// doubled returns a clone of g with every subtask cost, message size and
// end-to-end deadline doubled. Doubling is exact in binary floating point,
// so every sum, maximum and ratio the distributor and the scheduler form
// doubles or stays put exactly.
func doubled(g *taskgraph.Graph) (*taskgraph.Graph, error) {
	d := g.Clone()
	for id, c := range g.Costs() {
		if err := d.SetCost(taskgraph.NodeID(id), 2*c); err != nil {
			return nil, err
		}
	}
	for _, out := range g.OutputsView() {
		if err := d.SetEndToEnd(out, 2*g.Node(out).EndToEnd); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// checkScaleByTwo distributes and schedules a random graph and its doubled
// clone under model, and requires the doubled run's maximum lateness to be
// exactly twice the original's; a preemptive run must also keep its
// segment count. Both schedules must validate.
func checkScaleByTwo(seed uint64, scen generator.Scenario, n int, metric core.Metric,
	respect bool, model scaleModel) error {

	g, err := generator.Random(generator.Default(scen), rng.New(seed))
	if err != nil {
		return err
	}
	g2, err := doubled(g)
	if err != nil {
		return err
	}
	var opts []platform.Option
	if model.contended {
		opts = append(opts, platform.WithBusContention())
	}
	sys, err := platform.New(n, opts...)
	if err != nil {
		return err
	}
	cfg := Config{RespectRelease: respect, Preemptive: model.preemptive}
	if model.network != "" {
		if cfg.Network, err = channel.Builders()[model.network](n, 1); err != nil {
			return err
		}
	}
	d := core.Distributor{Metric: metric, Estimator: core.CCAA()}
	run := func(g *taskgraph.Graph) (float64, int, error) {
		res, err := d.Distribute(g, sys)
		if err != nil {
			return 0, 0, err
		}
		s, err := Run(g, sys, res, cfg)
		if err != nil {
			return 0, 0, err
		}
		if err := Validate(g, sys, res, s, cfg); err != nil {
			return 0, 0, err
		}
		return s.MaxLateness(g, res), len(s.Segments), nil
	}
	l1, k1, err := run(g)
	if err != nil {
		return err
	}
	l2, k2, err := run(g2)
	if err != nil {
		return fmt.Errorf("doubled: %v", err)
	}
	if math.Float64bits(l2) != math.Float64bits(2*l1) {
		return fmt.Errorf("max lateness %v doubled to %v, want %v", l1, l2, 2*l1)
	}
	if k1 != k2 {
		return fmt.Errorf("%d segments became %d", k1, k2)
	}
	return nil
}

// TestScaleByTwoAcrossModels is a metamorphic relation over every model
// Run supports: doubling every cost, message size and end-to-end deadline
// doubles the maximum lateness bit for bit. Seeds rotate through the
// execution-time scenarios; every seed runs every model, size 2, 3, 8 and
// 16, PURE and NORM (with CCAA) and both release modes.
func TestScaleByTwoAcrossModels(t *testing.T) {
	seeds := uint64(24)
	if testing.Short() {
		seeds = 6
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		scen := scaleScenarios[seed%3]
		for _, model := range scaleModels {
			for _, n := range []int{2, 3, 8, 16} {
				for _, metric := range []core.Metric{core.PURE(), core.NORM()} {
					for _, respect := range []bool{true, false} {
						if err := checkScaleByTwo(seed, scen, n, metric, respect, model); err != nil {
							t.Errorf("seed %d %s n=%d %s respect=%v %s: %v",
								seed, scen.Name, n, metric.Name(), respect, model.name, err)
						}
					}
				}
			}
		}
	}
}

// FuzzScaleByTwo explores the same relation over fuzzer-chosen seeds,
// scenarios, sizes, metrics, release modes and models.
func FuzzScaleByTwo(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2))
	f.Add(uint64(7), uint8(0x15), uint8(8))
	f.Add(uint64(42), uint8(0x2e), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, flags, size uint8) {
		n := 1 + int(size)%16
		metric := core.PURE()
		if flags&1 != 0 {
			metric = core.NORM()
		}
		respect := flags&2 != 0
		scen := scaleScenarios[int(flags>>2)%3]
		model := scaleModels[int(flags>>4)%len(scaleModels)]
		if err := checkScaleByTwo(seed, scen, n, metric, respect, model); err != nil {
			t.Fatalf("seed %d %s n=%d %s respect=%v %s: %v",
				seed, scen.Name, n, metric.Name(), respect, model.name, err)
		}
	})
}
