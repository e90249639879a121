package taskgraph_test

import (
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// TestDecodeAllocsBounded pins the allocations of decoding a
// paper-default graph (48 subtasks, 84 arcs): one name copy per subtask,
// and a count that grows with neither the subtasks nor the arcs beyond
// that (75 in all). Build sizes every container from the wire's counts
// and Finalize cuts all message names from one string; a string per
// message name and containers grown by appending took 171.
func TestDecodeAllocsBounded(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(7))
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
	limit := g.NumSubtasks() + 40
	t.Logf("decode: %.0f allocs (%d subtasks, %d arcs), limit %d", allocs, g.NumSubtasks(), g.NumMessages(), limit)
	if allocs > float64(limit) {
		t.Errorf("decode: %.0f allocs for %d subtasks and %d arcs, limit %d", allocs, g.NumSubtasks(), g.NumMessages(), limit)
	}
}
