package taskgraph_test

import (
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// TestDecodeAllocsBounded pins the allocations of decoding a
// paper-default graph (48 subtasks, 84 arcs) and a 400-subtask one: at
// most 30, the same count for both. The scan reads the input in place,
// Build copies every subtask name into one string, sizes every container
// from the wire's counts, and Finalize cuts all message names from one
// string. Cloning each name from a copy of the input took 75 for the
// smaller graph; a string per message name and containers grown by
// appending took 171.
func TestDecodeAllocsBounded(t *testing.T) {
	const limit = 30
	counts := map[int]float64{}
	for _, n := range []int{0, 400} {
		cfg := generator.Default(generator.MDET)
		if n > 0 {
			cfg.MinSubtasks, cfg.MaxSubtasks = n, n
		}
		g, err := generator.Random(cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := taskgraph.Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		counts[n] = allocs
		t.Logf("decode: %.0f allocs (%d subtasks, %d arcs), limit %d", allocs, g.NumSubtasks(), g.NumMessages(), limit)
		if allocs > limit {
			t.Errorf("decode: %.0f allocs for %d subtasks and %d arcs, limit %d", allocs, g.NumSubtasks(), g.NumMessages(), limit)
		}
	}
	if counts[0] != counts[400] {
		t.Errorf("decode: %.0f allocs for the paper-default graph, %.0f for 400 subtasks: the count grows with the graph", counts[0], counts[400])
	}
}
