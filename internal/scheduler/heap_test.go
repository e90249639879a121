package scheduler

import (
	"math"
	"sort"
	"testing"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// TestReadyHeapOrder drains a heap loaded with random keys (including
// duplicates) and checks pops come out in exactly (key, NodeID) order — the
// selection rule of the linear scan the heap replaced.
func TestReadyHeapOrder(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		n := src.IntIn(1, 64)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(src.IntIn(0, 9)) // few distinct keys → many ties
		}
		var h readyHeap
		h.reset(keys)
		perm := make([]taskgraph.NodeID, n)
		for i := range perm {
			perm[i] = taskgraph.NodeID(i)
		}
		for i := n - 1; i > 0; i-- { // deterministic shuffle of push order
			j := src.IntIn(0, i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, v := range perm {
			h.push(v)
		}

		want := make([]taskgraph.NodeID, n)
		copy(want, perm)
		sort.Slice(want, func(i, j int) bool {
			if keys[want[i]] != keys[want[j]] {
				return keys[want[i]] < keys[want[j]]
			}
			return want[i] < want[j]
		})
		for i, w := range want {
			if h.peek() != w {
				t.Fatalf("trial %d pop %d: peek %v, want %v", trial, i, h.peek(), w)
			}
			if got := h.pop(); got != w {
				t.Fatalf("trial %d pop %d: got %v, want %v", trial, i, got, w)
			}
		}
		if h.len() != 0 || h.peek() != taskgraph.None {
			t.Fatalf("trial %d: heap not empty after drain", trial)
		}
	}
}

// TestReadyHeapInterleaved mixes pushes and pops and checks against a
// linear-scan model of the old ready queue.
func TestReadyHeapInterleaved(t *testing.T) {
	src := rng.New(7)
	keys := make([]float64, 256)
	for i := range keys {
		keys[i] = float64(src.IntIn(0, 20))
	}
	var h readyHeap
	h.reset(keys)
	var model []taskgraph.NodeID
	next := 0
	for step := 0; step < 500; step++ {
		if next < len(keys) && (len(model) == 0 || src.IntIn(0, 2) > 0) {
			v := taskgraph.NodeID(next)
			next++
			h.push(v)
			model = append(model, v)
			continue
		}
		// Linear-scan min, exactly as the old dispatch loop.
		best := 0
		for i := 1; i < len(model); i++ {
			di, db := keys[model[i]], keys[model[best]]
			if di < db || (di == db && model[i] < model[best]) {
				best = i
			}
		}
		want := model[best]
		model = append(model[:best], model[best+1:]...)
		if got := h.pop(); got != want {
			t.Fatalf("step %d: heap popped %v, scan picked %v", step, got, want)
		}
	}
}

// TestScratchReuseDeterminism runs a batch of graphs through one shared
// Scratch (as the experiment engine does) and through fresh allocations,
// across all three models, checking the schedules are identical — buffer
// reuse must not leak state between runs.
func TestScratchReuseDeterminism(t *testing.T) {
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{RespectRelease: true}
	d := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}
	shared := NewScratch()

	sameSchedule := func(a, b *Schedule) bool {
		if len(a.Order) != len(b.Order) || a.Makespan != b.Makespan {
			return false
		}
		for i := range a.Order {
			if a.Order[i] != b.Order[i] {
				return false
			}
		}
		for i := range a.Start {
			if a.Start[i] != b.Start[i] || a.Finish[i] != b.Finish[i] || a.Proc[i] != b.Proc[i] {
				return false
			}
		}
		return true
	}

	for seed := uint64(1); seed <= 10; seed++ {
		g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Distribute(g, sys)
		if err != nil {
			t.Fatal(err)
		}

		fresh, err := Run(g, sys, res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := shared.Run(g, sys, res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(fresh, reused) {
			t.Fatalf("seed %d: shared-scratch schedule differs from fresh run", seed)
		}

		pcfg := cfg
		pcfg.Preemptive = true
		freshP, err := Run(g, sys, res, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		reusedP, err := shared.Run(g, sys, res, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(freshP, reusedP) {
			t.Fatalf("seed %d: shared-scratch preemptive schedule differs", seed)
		}
		if math.IsNaN(reusedP.Makespan) {
			t.Fatalf("seed %d: NaN makespan", seed)
		}

		net, err := channel.Ring(sys.NumProcs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := cfg
		mcfg.Network = net
		freshM, err := Run(g, sys, res, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		reusedM, err := shared.Run(g, sys, res, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(freshM, reusedM) {
			t.Fatalf("seed %d: shared-scratch multihop schedule differs", seed)
		}
	}
}
