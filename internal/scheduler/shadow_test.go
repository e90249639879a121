package scheduler

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// runShadow is a test-local copy of Run's dispatch loop with every hot-path
// optimization removed: each candidate processor is costed with the unpruned
// st helper (full bus-plan walk, no branch-and-bound, no crossProc elision)
// and readiness/propagation go through the Graph's slice accessors instead of
// raw CSR arrays. Run must produce bit-identical schedules.
func runShadow(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config) (*Schedule, error) {
	sc := NewScratch()
	n := g.NumNodes()
	sc.keys = resize(sc.keys, n)
	if _, err := priorityKeysInto(sc.keys, g, res, cfg.Policy); err != nil {
		return nil, err
	}
	if sys.BusContention() {
		sc.buildMsgOrder(g, res)
	}
	sc.bindProducers(g) // st/busPlan/commitMessages read sc.prod

	s := &Schedule{Start: make([]float64, n), Finish: make([]float64, n), Proc: make([]int, n)}
	for i := range s.Proc {
		s.Proc[i] = -1
	}
	procFree := make([]float64, sys.NumProcs())
	busFree := 0.0

	pendingPreds := make([]int, n)
	sc.ready.reset(sc.keys)
	numSubtasks := 0
	for id := 0; id < n; id++ {
		nid := taskgraph.NodeID(id)
		if g.Node(nid).Kind != taskgraph.KindSubtask {
			continue
		}
		numSubtasks++
		for _, m := range g.Pred(nid) {
			pendingPreds[nid] += len(g.Pred(m))
		}
		if pendingPreds[nid] == 0 {
			sc.ready.push(nid)
		}
	}

	for step := 0; step < numSubtasks; step++ {
		if sc.ready.len() == 0 {
			return nil, errors.New("shadow: no schedulable subtask")
		}
		v := sc.ready.pop()
		lo, hi := 0, sys.NumProcs()
		if pin := g.Node(v).Pinned; pin != taskgraph.Unpinned {
			if pin >= sys.NumProcs() {
				return nil, ErrBadPin
			}
			lo, hi = pin, pin+1
		}
		bestProc, bestStart, bestFinish := -1, math.Inf(1), math.Inf(1)
		for p := lo; p < hi; p++ {
			start := sc.st(g, sys, res, s, cfg, v, p, procFree[p], busFree)
			finish := start + sys.ExecTime(g.Node(v).Cost, p)
			if finish < bestFinish || (finish == bestFinish && start < bestStart) {
				bestProc, bestStart, bestFinish = p, start, finish
			}
		}
		busFree = sc.commitMessages(g, sys, s, v, bestProc, busFree)
		s.Proc[v] = bestProc
		s.Start[v] = bestStart
		s.Finish[v] = bestFinish
		procFree[bestProc] = bestFinish
		s.Order = append(s.Order, v)
		if bestFinish > s.Makespan {
			s.Makespan = bestFinish
		}
		for _, m := range g.Succ(v) {
			for _, w := range g.Succ(m) {
				pendingPreds[w]--
				if pendingPreds[w] == 0 {
					sc.ready.push(w)
				}
			}
		}
	}
	return s, nil
}

// shadowCases builds a spread of (graph, platform, distribution) inputs:
// platform sizes from degenerate to wide, partially pinned workloads, and a
// mix of metrics/estimators so deadlines (hence EDF orders and bus plans)
// vary.
func shadowCases(t *testing.T, opts ...platform.Option) []reuseCase {
	t.Helper()
	var cases []reuseCase
	pinned := generator.Default(generator.MDET)
	pinned.PinnedFraction = 0.4
	pinned.PinnedProcs = 2
	for _, n := range []int{1, 2, 4, 7} {
		sys, err := platform.New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(10); seed < 16; seed++ {
			wcfg := generator.Default(generator.MDET)
			if seed%2 == 0 && n >= 2 {
				wcfg = pinned
			}
			g, err := generator.Random(wcfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			d := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}
			if seed%3 == 0 {
				d = core.Distributor{Metric: core.NORM(), Estimator: core.CCAA()}
			}
			res, err := d.Distribute(g, sys)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, reuseCase{g: g, sys: sys, res: res})
		}
	}
	return cases
}

// TestRunMatchesShadowDispatcher pits the production dispatch loop (producer
// cache, branch-and-bound stBounded, crossProc bus-plan elision) against the
// unpruned shadow across random graphs, platform sizes, both contention
// modes, and both release-handling modes. Schedules must be bit-identical —
// reflect.DeepEqual over float64 slices tolerates nothing.
func TestRunMatchesShadowDispatcher(t *testing.T) {
	modes := []struct {
		name string
		opts []platform.Option
	}{
		{"uncontended", nil},
		{"contended-bus", []platform.Option{platform.WithBusContention()}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for _, respect := range []bool{true, false} {
				cfg := Config{RespectRelease: respect}
				for i, c := range shadowCases(t, mode.opts...) {
					want, err := runShadow(c.g, c.sys, c.res, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(c.g, c.sys, c.res, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("respect=%v case %d: optimized schedule differs from unpruned shadow", respect, i)
					}
					if err := Validate(c.g, c.sys, c.res, got, cfg); err != nil {
						t.Errorf("respect=%v case %d: %v", respect, i, err)
					}
				}
			}
		})
	}
}

// TestMsgOrderMatchesSortSlice checks buildMsgOrder's allocation-free
// insertion sort against sort.Slice with the same (absolute deadline, NodeID)
// key. The key is a strict total order, so both must produce the one sorted
// sequence.
func TestMsgOrderMatchesSortSlice(t *testing.T) {
	for i, c := range shadowCases(t, platform.WithBusContention()) {
		sc := NewScratch()
		sc.buildMsgOrder(c.g, c.res)
		for id := 0; id < c.g.NumNodes(); id++ {
			nid := taskgraph.NodeID(id)
			if c.g.Node(nid).Kind != taskgraph.KindSubtask {
				continue
			}
			want := append([]taskgraph.NodeID(nil), c.g.Pred(nid)...)
			sort.Slice(want, func(a, b int) bool {
				da, db := c.res.Absolute[want[a]], c.res.Absolute[want[b]]
				if da != db {
					return da < db
				}
				return want[a] < want[b]
			})
			got := sc.msgOrder[nid]
			if len(got) != len(want) {
				t.Fatalf("case %d node %d: %d messages, want %d", i, id, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("case %d node %d: msgOrder %v, want %v", i, id, got, want)
				}
			}
		}
	}
}

// st computes the earliest start time of subtask v on processor p given the
// current partial schedule, without committing bus reservations.
func (sc *Scratch) st(g *taskgraph.Graph, sys *platform.System, res *core.Result, s *Schedule,
	cfg Config, v taskgraph.NodeID, p int, procFree, busFree float64) float64 {

	start := procFree
	if cfg.RespectRelease && res.Release[v] > start {
		start = res.Release[v]
	}
	if !sys.BusContention() {
		for _, m := range g.Pred(v) {
			u := g.Pred(m)[0]
			arrival := s.Finish[u] + sys.CommCost(s.Proc[u], p, g.Node(m).Size)
			if arrival > start {
				start = arrival
			}
		}
		return start
	}
	// Contended bus: tentatively serialize this subtask's cross-processor
	// messages in deadline order after busFree.
	for _, iv := range sc.busPlan(g, sys, s, v, p, busFree) {
		if iv.finish > start {
			start = iv.finish
		}
	}
	for _, m := range g.Pred(v) {
		u := g.Pred(m)[0]
		if s.Proc[u] == p { // co-located: arrival at producer finish
			if s.Finish[u] > start {
				start = s.Finish[u]
			}
		}
	}
	return start
}

// FuzzRunMatchesShadowDispatcher explores TestRunMatchesShadowDispatcher's
// equivalence over fuzzer-chosen seeds and sizes 1–16, with bus contention
// on and off, pinned subtasks, heterogeneous speeds (integer costs, so
// finish ties exercise the start tie-break), every dispatch policy and both
// release modes.
func FuzzRunMatchesShadowDispatcher(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0))
	f.Add(uint64(7), uint8(8), uint8(0x0b))
	f.Add(uint64(42), uint8(15), uint8(0x3f))
	policies := Policies()
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed uint64, size, flags uint8) {
		n := 1 + int(size)%16
		var opts []platform.Option
		if flags&8 != 0 {
			opts = append(opts, platform.WithBusContention())
		}
		g, sys, err := randomCase(seed, n, flags&1 != 0, flags&2 != 0, opts...)
		if err != nil {
			t.Skip(err)
		}
		res, err := seedDistributor(seed, core.CCNE()).Distribute(g, sys)
		if err != nil {
			t.Skip(err)
		}
		cfg := Config{RespectRelease: flags&4 != 0, Policy: policies[int(flags>>4)%len(policies)]}
		want, err := runShadow(g, sys, res, cfg)
		if err != nil {
			t.Fatalf("seed %d n=%d flags %#x: shadow: %v", seed, n, flags, err)
		}
		got, err := sc.Run(g, sys, res, cfg)
		if err != nil {
			t.Fatalf("seed %d n=%d flags %#x: Run: %v", seed, n, flags, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d n=%d flags %#x: Run differs from the unpruned shadow", seed, n, flags)
		}
		if err := Validate(g, sys, res, got, cfg); err != nil {
			t.Fatalf("seed %d n=%d flags %#x: %v", seed, n, flags, err)
		}
	})
}
