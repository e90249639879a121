package core

import (
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// TestDistributeScratchZeroAlloc pins the steady-state allocation contract
// of the pooled distribution path: once a Scratch and a recycled Result have
// warmed up on a graph/platform shape, further distributions allocate
// nothing. This is what the generation-stamped DP rows, bitset reachability
// and buffer-filling estimators and metrics buy; any regression (a
// fresh slice on the hot path, an interface box, a map) shows up as a
// nonzero allocation count. The same holds for one Scratch and Result
// carried between a 176-node graph and a 108-node one: every buffer (the
// row records and the spill arena included) keeps the larger graph's
// capacity and is only resliced for the smaller.
func TestDistributeScratchZeroAlloc(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	big, err := generator.Random(generator.Default(generator.MDET), rng.New(73))
	if err != nil {
		t.Fatal(err)
	}
	small, err := generator.Random(generator.Default(generator.MDET), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if big.NumNodes() != 176 || small.NumNodes() != 108 {
		t.Fatalf("precondition: graphs have %d and %d nodes, want 176 and 108", big.NumNodes(), small.NumNodes())
	}
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{PURE(), NORM(), ADAPT(1.25), ADAPTAblation(1.25, false, true)} {
		t.Run(m.Name(), func(t *testing.T) {
			d := Distributor{Metric: m, Estimator: CCNE()}
			sc := NewScratch()
			res, err := d.DistributeScratch(g, sys, nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			// A second warmup run settles any cap-growth of recycled
			// slices (Paths entries, candidate memos) before counting.
			if res, err = d.DistributeScratch(g, sys, res, sc); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				var err error
				res, err = d.DistributeScratch(g, sys, res, sc)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state DistributeScratch allocates %.1f objects/op, want 0", allocs)
			}

			sc, res = NewScratch(), nil
			sizes := func() {
				for _, g := range []*taskgraph.Graph{big, small} {
					var err error
					if res, err = d.DistributeScratch(g, sys, res, sc); err != nil {
						t.Fatal(err)
					}
				}
			}
			sizes()
			sizes()
			if allocs := testing.AllocsPerRun(10, sizes); allocs != 0 {
				t.Errorf("DistributeScratch between a %d- and a %d-node graph allocates %.1f objects per pair, want 0",
					big.NumNodes(), small.NumNodes(), allocs)
			}
		})
	}
}
