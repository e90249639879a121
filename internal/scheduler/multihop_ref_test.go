package scheduler

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// runMultihopReference is the unpruned multihop list scheduler a Run over a
// network is checked against: every candidate processor copies the whole
// link table, builds the full hop plan of every inbound message and only
// then compares its start time, and the winner's plan is rebuilt into
// freshly allocated hop slices. Run must produce bit-identical schedules.
func runMultihopReference(g *taskgraph.Graph, sys *platform.System, net *channel.Network,
	res *core.Result, cfg Config) (*Schedule, error) {

	sc := NewScratch()
	n := g.NumNodes()
	sc.keys = resize(sc.keys, n)
	if _, err := priorityKeysInto(sc.keys, g, res, cfg.Policy); err != nil {
		return nil, err
	}
	sc.buildMsgOrder(g, res)

	s := &Schedule{Start: make([]float64, n), Finish: make([]float64, n), Proc: make([]int, n),
		Hops: make(map[taskgraph.NodeID][]Hop)}
	for i := range s.Proc {
		s.Proc[i] = -1
	}
	procFree := make([]float64, sys.NumProcs())
	linkFree := make([]float64, net.NumLinks())
	scratch := make([]float64, net.NumLinks())

	pendingPreds := make([]int, n)
	sc.ready.reset(sc.keys)
	numSubtasks := 0
	for id := 0; id < n; id++ {
		nid := taskgraph.NodeID(id)
		if g.Node(nid).Kind != taskgraph.KindSubtask {
			continue
		}
		numSubtasks++
		pendingPreds[nid] = len(g.Pred(nid))
		if pendingPreds[nid] == 0 {
			sc.ready.push(nid)
		}
	}

	for step := 0; step < numSubtasks; step++ {
		if sc.ready.len() == 0 {
			return nil, fmt.Errorf("reference: no schedulable subtask at step %d", step)
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
			start := procFree[p]
			if cfg.RespectRelease && res.Release[v] > start {
				start = res.Release[v]
			}
			copy(scratch, linkFree)
			plan, err := reserveInboundReference(g, net, s, sc.msgOrder[v], p, scratch)
			if err != nil {
				return nil, err
			}
			for _, mp := range plan {
				if k := len(mp.hops); k > 0 {
					if end := mp.hops[k-1].End; end > start {
						start = end
					}
				} else if f := s.Finish[g.Pred(mp.msg)[0]]; f > start { // co-located
					start = f
				}
			}
			finish := start + sys.ExecTime(g.Node(v).Cost, p)
			if finish < bestFinish || (finish == bestFinish && start < bestStart) {
				bestProc, bestStart, bestFinish = p, start, finish
			}
		}

		plan, err := reserveInboundReference(g, net, s, sc.msgOrder[v], bestProc, linkFree)
		if err != nil {
			return nil, err
		}
		for _, mp := range plan {
			m, u := mp.msg, g.Pred(mp.msg)[0]
			if len(mp.hops) == 0 {
				s.Start[m] = s.Finish[u]
				s.Finish[m] = s.Finish[u]
				continue
			}
			s.Start[m] = mp.hops[0].Start
			s.Finish[m] = mp.hops[len(mp.hops)-1].End
			s.Hops[m] = mp.hops
		}
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

// refPlan is one inbound message's reservation in the reference scheduler.
type refPlan struct {
	msg  taskgraph.NodeID
	hops []Hop
}

// reserveInboundReference reserves link time for the messages in order
// (v's inbound messages, deadline-sorted) with v on processor p, mutating
// linkFree. Co-located messages get empty hop lists.
func reserveInboundReference(g *taskgraph.Graph, net *channel.Network, s *Schedule,
	order []taskgraph.NodeID, p int, linkFree []float64) ([]refPlan, error) {

	var plans []refPlan
	for _, m := range order {
		u := g.Pred(m)[0]
		if s.Proc[u] == p {
			plans = append(plans, refPlan{msg: m})
			continue
		}
		route, err := net.Route(s.Proc[u], p)
		if err != nil {
			return nil, err
		}
		t := s.Finish[u]
		hops := make([]Hop, 0, len(route))
		for _, l := range route {
			start := math.Max(t, linkFree[l])
			end := start + net.Link(l).PerItem*g.Node(m).Size
			linkFree[l] = end
			hops = append(hops, Hop{Link: l, Start: start, End: end})
			t = end
		}
		plans = append(plans, refPlan{msg: m, hops: hops})
	}
	return plans, nil
}

// randomCase builds a random MDET graph (40% of its inputs and outputs
// pinned when pinned is set) on an n-processor platform with opts. When
// hetero is set, speeds alternate 1 and 2 and costs and sizes are rounded
// to integers, so candidates often tie on finish with different starts and
// the start tie-break decides.
func randomCase(seed uint64, n int, pinned, hetero bool, opts ...platform.Option) (*taskgraph.Graph, *platform.System, error) {
	wcfg := generator.Default(generator.MDET)
	if pinned {
		wcfg.PinnedFraction = 0.4
		wcfg.PinnedProcs = min(n, 3)
	}
	g, err := generator.Random(wcfg, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	if hetero {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = float64(1 + i%2)
		}
		opts = append(opts, platform.WithSpeeds(speeds))
		for id, c := range g.Costs() {
			if err := g.SetCost(taskgraph.NodeID(id), math.Round(c)); err != nil {
				return nil, nil, err
			}
		}
	}
	sys, err := platform.New(n, opts...)
	return g, sys, err
}

// seedDistributor picks the distribution for a case by seed, so deadlines,
// and hence dispatch, bus and link orders, vary; est is the seed%3 == 0
// estimator.
func seedDistributor(seed uint64, est core.CommEstimator) core.Distributor {
	switch seed % 3 {
	case 1:
		return core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}
	case 2:
		return core.Distributor{Metric: core.NORM(), Estimator: core.CCAA()}
	}
	return core.Distributor{Metric: core.ADAPT(1.25), Estimator: est}
}

// multihopCase builds one reference-check input: a randomCase on network
// family name, distributed by seedDistributor with the network's CCHOP
// estimator.
func multihopCase(seed uint64, name string, n int, pinned, hetero bool) (*taskgraph.Graph, *platform.System,
	*channel.Network, *core.Result, error) {

	g, sys, err := randomCase(seed, n, pinned, hetero)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	net, err := channel.Builders()[name](n, 1)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	res, err := seedDistributor(seed, core.CCHOP(net)).Distribute(g, sys)
	return g, sys, net, res, err
}

// checkMultihopMatchesReference runs Run over net on the reused Scratch and
// the unpruned reference, requiring bit-identical placements, dispatch
// order, makespan and hops.
func checkMultihopMatchesReference(sc *Scratch, g *taskgraph.Graph, sys *platform.System,
	net *channel.Network, res *core.Result, cfg Config) error {

	ws, err := runMultihopReference(g, sys, net, res, cfg)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	cfg.Network = net
	gs, err := sc.Run(g, sys, res, cfg)
	if err != nil {
		return fmt.Errorf("Run: %v", err)
	}
	switch {
	case !reflect.DeepEqual(gs.Proc, ws.Proc):
		return fmt.Errorf("Proc %v, reference %v", gs.Proc, ws.Proc)
	case !reflect.DeepEqual(gs.Start, ws.Start):
		return fmt.Errorf("Start %v, reference %v", gs.Start, ws.Start)
	case !reflect.DeepEqual(gs.Finish, ws.Finish):
		return fmt.Errorf("Finish %v, reference %v", gs.Finish, ws.Finish)
	case !reflect.DeepEqual(gs.Order, ws.Order):
		return fmt.Errorf("Order %v, reference %v", gs.Order, ws.Order)
	case gs.Makespan != ws.Makespan:
		return fmt.Errorf("Makespan %v, reference %v", gs.Makespan, ws.Makespan)
	case !reflect.DeepEqual(gs.Hops, ws.Hops):
		return fmt.Errorf("Hops %v, reference %v", gs.Hops, ws.Hops)
	}
	return Validate(g, sys, res, gs, cfg)
}

// TestRunMultihopMatchesReference pits the branch-and-bound Run over a
// network against the unpruned reference over random graphs, every network family,
// platform sizes 1–16, pinned and unpinned workloads, both release modes and
// every dispatch policy, on homogeneous and heterogeneous platforms. One
// Scratch serves every case, so recycled link tables, stamps and hop
// backings are exercised too.
func TestRunMultihopMatchesReference(t *testing.T) {
	sc := NewScratch()
	for _, name := range []string{"bus", "ring", "star", "mesh"} {
		for n := 1; n <= 16; n++ {
			for variant := 0; variant < 4; variant++ {
				pinned, hetero := variant&1 != 0, variant&2 != 0
				g, sys, net, res, err := multihopCase(uint64(n*4+variant), name, n, pinned, hetero)
				if err != nil {
					t.Fatal(err)
				}
				for _, respect := range []bool{true, false} {
					for _, pol := range Policies() {
						cfg := Config{RespectRelease: respect, Policy: pol}
						if err := checkMultihopMatchesReference(sc, g, sys, net, res, cfg); err != nil {
							t.Errorf("%s n=%d pinned=%v hetero=%v respect=%v %v: %v",
								name, n, pinned, hetero, respect, pol, err)
						}
					}
				}
			}
		}
	}
}

// FuzzRunMultihopMatchesReference explores the same equivalence over
// fuzzer-chosen seeds, network families, sizes and configurations.
func FuzzRunMultihopMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(8), uint8(5))
	f.Add(uint64(42), uint8(3), uint8(15), uint8(14))
	names := []string{"bus", "ring", "star", "mesh"}
	policies := Policies()
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed uint64, family, size, flags uint8) {
		name := names[int(family)%len(names)]
		n := 1 + int(size)%16
		g, sys, net, res, err := multihopCase(seed, name, n, flags&1 != 0, flags&2 != 0)
		if err != nil {
			t.Skip(err)
		}
		cfg := Config{RespectRelease: flags&4 != 0, Policy: policies[int(flags>>3)%len(policies)]}
		if err := checkMultihopMatchesReference(sc, g, sys, net, res, cfg); err != nil {
			t.Fatalf("seed %d %s n=%d flags %#x: %v", seed, name, n, flags, err)
		}
	})
}
