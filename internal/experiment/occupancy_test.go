package experiment

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/sfcache"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// meetAssigner wraps an Assigner with a two-party rendezvous: the first
// assignment of each of the first two distinct graphs blocks until both are
// in flight. It turns "the pool overlapped two units" from a scheduling
// accident into a certainty — if the sweep ever serializes units again, the
// rendezvous deadlocks and the test times out instead of passing by luck.
// A nil barrier disables the rendezvous (the single-worker control, where
// two units can never overlap).
type meetAssigner struct {
	Assigner
	mu   sync.Mutex
	seen map[*taskgraph.Graph]bool
	wg   *sync.WaitGroup
}

func (a *meetAssigner) rendezvous(g *taskgraph.Graph) {
	if a.wg == nil {
		return
	}
	a.mu.Lock()
	if a.seen[g] || len(a.seen) >= 2 {
		a.mu.Unlock()
		return
	}
	a.seen[g] = true
	a.mu.Unlock()
	a.wg.Done()
	a.wg.Wait()
}

func (a *meetAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	a.rendezvous(g)
	return a.Assigner.Assign(ctx, g, sys, recycle, sc)
}

// TestPoolOccupancyMultiCore is the regression test for ROADMAP item 1's
// headline symptom: BENCH_experiment.json recorded poolPeak: 1, which reads
// as "the sweep is serialized" but was actually the recording host (1 CPU,
// so the default pool is sized GOMAXPROCS(0) = 1). Under a forced
// GOMAXPROCS(4), pools with more than one worker must reach an occupancy
// peak of at least 2 — proven by a rendezvous that blocks one unit until a
// second is in flight — the snapshot must self-describe the pool size, and
// the tables must stay bit-identical across every worker count.
func TestPoolOccupancyMultiCore(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	cfg := orcCfg()
	var tables []*Table
	counts := []int{1, 3, 8}
	for _, workers := range counts {
		var wg *sync.WaitGroup
		if workers > 1 {
			wg = &sync.WaitGroup{}
			wg.Add(2)
		}
		asg := []Assigner{
			&meetAssigner{
				Assigner: Slicing(core.ADAPT(1.25), core.CCNE()),
				seen:     make(map[*taskgraph.Graph]bool),
				wg:       wg,
			},
			Baseline(strategy.UD()),
		}
		rec := metrics.New()
		c := cfg
		c.Metrics = rec
		orc := NewOrchestrator(workers)
		c.Orchestrator = orc
		tab, err := c.Run("occupancy", asg...)
		orc.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := rec.Snapshot()
		if snap.PoolWorkers != int64(workers) {
			t.Errorf("workers=%d: snapshot records poolWorkers=%d", workers, snap.PoolWorkers)
		}
		if snap.Gomaxprocs != 4 {
			t.Errorf("workers=%d: snapshot records gomaxprocs=%d, want 4", workers, snap.Gomaxprocs)
		}
		if snap.Cpus < 1 {
			t.Errorf("workers=%d: snapshot records cpus=%d", workers, snap.Cpus)
		}
		if workers > 1 && snap.PoolPeak < 2 {
			t.Errorf("workers=%d under GOMAXPROCS(4): poolPeak=%d, want >= 2", workers, snap.PoolPeak)
		}
		if workers == 1 && snap.PoolPeak != 1 {
			t.Errorf("workers=1: poolPeak=%d, want exactly 1", snap.PoolPeak)
		}
		tables = append(tables, tab)
	}
	for i, tab := range tables[1:] {
		if !reflect.DeepEqual(tab, tables[0]) {
			t.Errorf("workers=%d table differs from workers=1 table", counts[i+1])
		}
	}
}

// TestCrossCacheSaturationFlush pins the assignment cache's capacity story:
// publishes beyond maxAssign are counted as rejected (not silently
// dropped), a full cache's worth of rejections flushes the cache and
// re-opens admission, and none of it perturbs table output. The test
// swaps in a 4-entry assignment cache so a 6-graph sweep saturates it.
func TestCrossCacheSaturationFlush(t *testing.T) {
	cfg := orcCfg()
	asg := []Assigner{Slicing(core.ADAPT(1.25), core.CCNE())}
	want, err := cfg.Run("sat", asg...)
	if err != nil {
		t.Fatal(err)
	}

	orc := NewOrchestrator(2)
	defer orc.Close()
	orc.assigns = sfcache.New[assignKey, assignEntry](4, orc.hashAssign)
	rec := metrics.New()
	c := cfg
	c.Orchestrator = orc
	c.Metrics = rec
	got, err := c.Run("sat", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("saturated-cache table differs from unorchestrated reference")
	}
	snap := rec.Snapshot()
	if snap.CrossRejected == 0 {
		t.Error("no rejected publishes recorded on a saturated cache")
	}
	if snap.CrossFlushes == 0 {
		t.Error("no capacity flush recorded on a saturated cache")
	}
}

// driftBatch is a Custom generator for a re-analysis workload: every graph
// in the batch shares one structure (two independent four-subtask chains)
// and differs only in the cost of the first chain's root, the shape of
// measured execution times drifting between sweeps. Consecutive graphs on
// one worker's scratch therefore differ in costs only.
func driftBatch(src *rng.Source) (*taskgraph.Graph, error) {
	b := taskgraph.NewBuilder()
	var prev taskgraph.NodeID
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			cost := 10.0 + float64(c*4+i)
			if c == 0 && i == 0 {
				cost *= src.Float64In(1.0, 1.2)
			}
			id := b.AddSubtask("s", cost)
			if i > 0 {
				b.Connect(prev, id, 2)
			}
			prev = id
		}
		b.SetEndToEnd(prev, 400)
	}
	return b.Finalize()
}

// TestRunDriftBatchOrchestratedMatches: on a batch of structurally
// identical graphs with drifting execution times, the orchestrated sweep
// (shared pool, pooled scratch, cross-table cache) produces the table of
// the plain sweep bit for bit.
func TestRunDriftBatchOrchestratedMatches(t *testing.T) {
	cfg := Default(generator.MDET)
	cfg.Graphs = 6
	cfg.Sizes = []int{4}
	cfg.Workers = 1
	cfg.Custom = driftBatch
	asg := []Assigner{Slicing(core.PURE(), core.CCNE())}

	want, err := cfg.Run("drift", asg...)
	if err != nil {
		t.Fatal(err)
	}

	orc := NewOrchestrator(2)
	defer orc.Close()
	oc := cfg
	oc.Orchestrator = orc
	got, err := oc.Run("drift", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("orchestrated drift-batch table differs from plain table")
	}
}
