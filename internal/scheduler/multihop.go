package scheduler

import (
	"fmt"
	"math"
	"sort"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Hop is one reserved link transfer of a message.
type Hop struct {
	Link       channel.LinkID
	Start, End float64
}

// MultihopSchedule augments a Schedule with the per-message link
// reservations of a multihop network run.
type MultihopSchedule struct {
	Schedule *Schedule
	// Hops maps each cross-processor message to its reserved link
	// transfers in route order (co-located messages have no entry). A
	// Scratch's runs slice every message's hops out of one backing owned
	// by the Scratch, so they stay valid only until its next RunMultihop.
	Hops map[taskgraph.NodeID][]Hop
}

// RunMultihop schedules g with messages travelling over the multihop
// network net (reference [13]-style real-time channels): a message
// traverses its fixed shortest route store-and-forward, every link
// serializes its transfers, and each subtask's incoming messages reserve
// links in message-deadline order — deadline-based channel scheduling made
// possible by the deadline-distribution stage annotating communication
// subtasks. Subtask placement follows the paper's list scheduler
// (earliest-start-time processor among EDF-ready subtasks), evaluating
// candidate processors against tentative link reservations.
func RunMultihop(g *taskgraph.Graph, sys *platform.System, net *channel.Network,
	res *core.Result, cfg Config) (*MultihopSchedule, error) {
	return NewScratch().RunMultihop(g, sys, net, res, cfg)
}

// RunMultihop is the buffer-reusing form of the package-level RunMultihop.
// It runs Run's list scheduler with the network in place of the bus. The
// returned schedule and its hop slices are the Scratch's own storage, valid
// until its next RunMultihop.
func (sc *Scratch) RunMultihop(g *taskgraph.Graph, sys *platform.System, net *channel.Network,
	res *core.Result, cfg Config) (*MultihopSchedule, error) {

	if g == nil || sys == nil || res == nil || net == nil {
		return nil, ErrNilInput
	}
	if net.NumProcs() != sys.NumProcs() {
		return nil, fmt.Errorf("network spans %d processors, platform has %d: %w",
			net.NumProcs(), sys.NumProcs(), ErrBadSize)
	}
	if sc.multihop == nil {
		sc.multihop = &MultihopSchedule{Hops: make(map[taskgraph.NodeID][]Hop)}
	}
	out := sc.multihop
	clear(out.Hops)
	sc.hops = sc.hops[:0]
	sc.linkFree = resize(sc.linkFree, net.NumLinks())
	clear(sc.linkFree)
	sc.linkTmp = resize(sc.linkTmp, net.NumLinks())
	sc.linkStamp = resize(sc.linkStamp, net.NumLinks()) // stale stamps are below every later epoch

	s, err := sc.dispatch(g, sys, net, res, cfg, &sc.mhSched)
	if err != nil {
		return nil, err
	}
	out.Schedule = s
	return out, nil
}

// mhBounded computes the earliest start of subtask v on candidate processor
// p: v's inbound messages, in deadline order, tentatively reserve the links
// of their routes (in linkTmp, valid where linkStamp holds this candidate's
// epoch; elsewhere linkFree applies), and v starts after the last arrival.
// Branch-and-bound as in stBounded: start only grows, so the candidate is
// abandoned (ok=false) once start+exec fails the candidate loop's selection
// predicate; an unpruned start is bit-identical to the full walk's.
func (sc *Scratch) mhBounded(g *taskgraph.Graph, net *channel.Network, s *Schedule, res *core.Result,
	cfg Config, v taskgraph.NodeID, p int, procFree, exec, bestStart, bestFinish float64) (float64, bool, error) {

	start := procFree
	if cfg.RespectRelease && res.Release[v] > start {
		start = res.Release[v]
	}
	if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
		return 0, false, nil
	}
	sc.epoch++
	costs := g.Costs()
	for _, m := range sc.msgOrder[v] {
		u := sc.prod[m]
		t := s.Finish[u]
		if pu := s.Proc[u]; pu != p {
			route, err := net.Route(pu, p)
			if err != nil {
				return 0, false, err
			}
			for _, l := range route {
				free := sc.linkFree[l]
				if sc.linkStamp[l] == sc.epoch {
					free = sc.linkTmp[l]
				}
				t = math.Max(t, free) + net.Link(l).PerItem*costs[m]
				sc.linkTmp[l], sc.linkStamp[l] = t, sc.epoch
			}
		}
		if t > start {
			start = t
			if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
				return 0, false, nil
			}
		}
	}
	return start, true, nil
}

// commitInbound reserves the links of every message feeding v on p, in
// deadline order, records each transfer interval and publishes the hops in
// the Scratch's MultihopSchedule, sliced from the hop backing (slices cut
// before the backing grew keep the old array, which is never written again).
func (sc *Scratch) commitInbound(g *taskgraph.Graph, net *channel.Network, s *Schedule,
	v taskgraph.NodeID, p int) {

	costs := g.Costs()
	for _, m := range sc.msgOrder[v] {
		u := sc.prod[m]
		if s.Proc[u] == p {
			s.Start[m] = s.Finish[u]
			s.Finish[m] = s.Finish[u]
			continue
		}
		route, _ := net.Route(s.Proc[u], p) // resolved by mhBounded
		first := len(sc.hops)
		t := s.Finish[u]
		for _, l := range route {
			start := math.Max(t, sc.linkFree[l])
			t = start + net.Link(l).PerItem*costs[m]
			sc.linkFree[l] = t
			sc.hops = append(sc.hops, Hop{Link: l, Start: start, End: t})
		}
		hops := sc.hops[first:len(sc.hops):len(sc.hops)]
		s.Start[m] = hops[0].Start
		s.Finish[m] = t
		sc.multihop.Hops[m] = hops
	}
}

// ValidateMultihop checks a multihop schedule:
//
//  1. the underlying subtask placement is sound (durations, pins,
//     processor exclusivity, release times);
//  2. every subtask starts no earlier than each inbound message's final
//     hop (or the producer's finish when co-located);
//  3. every message's hops follow its route contiguously in time, the
//     first no earlier than the producer's finish;
//  4. no link carries two overlapping transfers.
func ValidateMultihop(g *taskgraph.Graph, sys *platform.System, net *channel.Network,
	res *core.Result, ms *MultihopSchedule, cfg Config) error {

	const eps = 1e-9
	s := ms.Schedule

	type iv struct {
		id            taskgraph.NodeID
		start, finish float64
	}
	perProc := make([][]iv, sys.NumProcs())
	perLink := make([][]iv, net.NumLinks())

	for _, node := range g.NodesView() {
		id := node.ID
		if node.Kind == taskgraph.KindSubtask {
			p := s.Proc[id]
			if p < 0 || p >= sys.NumProcs() {
				return fmt.Errorf("subtask %v on invalid processor %d", id, p)
			}
			if node.Pinned != taskgraph.Unpinned && p != node.Pinned {
				return fmt.Errorf("subtask %v pinned to %d but on %d", id, node.Pinned, p)
			}
			want := sys.ExecTime(node.Cost, p)
			if d := s.Finish[id] - s.Start[id]; math.Abs(d-want) > eps {
				return fmt.Errorf("subtask %v duration %v, want %v", id, d, want)
			}
			if cfg.RespectRelease && s.Start[id] < res.Release[id]-eps {
				return fmt.Errorf("subtask %v starts before release", id)
			}
			for _, m := range g.Pred(id) {
				if s.Start[id] < s.Finish[m]-eps {
					return fmt.Errorf("subtask %v starts %v before message %v arrives %v",
						id, s.Start[id], m, s.Finish[m])
				}
			}
			perProc[p] = append(perProc[p], iv{id: id, start: s.Start[id], finish: s.Finish[id]})
			continue
		}
		// Message.
		u, w := g.Pred(id)[0], g.Succ(id)[0]
		hops := ms.Hops[id]
		if len(hops) == 0 {
			if s.Proc[u] != s.Proc[w] {
				return fmt.Errorf("cross-processor message %v has no hops", id)
			}
			continue
		}
		route, err := net.Route(s.Proc[u], s.Proc[w])
		if err != nil {
			return err
		}
		if len(route) != len(hops) {
			return fmt.Errorf("message %v reserved %d hops, route has %d", id, len(hops), len(route))
		}
		if hops[0].Start < s.Finish[u]-eps {
			return fmt.Errorf("message %v departs before its producer finishes", id)
		}
		prevEnd := hops[0].Start
		for hi, h := range hops {
			if h.Link != route[hi] {
				return fmt.Errorf("message %v hop %d on link %d, route says %d", id, hi, h.Link, route[hi])
			}
			if h.Start < prevEnd-eps {
				return fmt.Errorf("message %v hop %d starts before previous hop ends", id, hi)
			}
			want := net.Link(h.Link).PerItem * node.Size
			if math.Abs((h.End-h.Start)-want) > eps {
				return fmt.Errorf("message %v hop %d duration %v, want %v", id, hi, h.End-h.Start, want)
			}
			perLink[h.Link] = append(perLink[h.Link], iv{id: id, start: h.Start, finish: h.End})
			prevEnd = h.End
		}
		if math.Abs(s.Finish[id]-prevEnd) > eps {
			return fmt.Errorf("message %v finish %v != last hop end %v", id, s.Finish[id], prevEnd)
		}
	}

	check := func(name string, ivs []iv) error {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].finish-eps {
				return fmt.Errorf("%s: %v overlaps %v", name, ivs[i-1].id, ivs[i].id)
			}
		}
		return nil
	}
	for p, ivs := range perProc {
		if err := check(fmt.Sprintf("processor %d", p), ivs); err != nil {
			return err
		}
	}
	for l, ivs := range perLink {
		if err := check(fmt.Sprintf("link %d", l), ivs); err != nil {
			return err
		}
	}
	return nil
}
