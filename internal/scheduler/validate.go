package scheduler

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Validate checks that a schedule Run produced under cfg is structurally
// sound. Every model is checked for:
//
//  1. every ordinary subtask is placed on a valid processor (its pinned
//     one, if pinned) and runs for exactly its platform execution time:
//     Finish−Start, or under Preemptive the sum of its Segments, which run
//     on its processor, the first at Start and the last ending at Finish;
//  2. no two subtasks (segments, under Preemptive) overlap on the same
//     processor;
//  3. every subtask starts no earlier than the arrival of each of its
//     input messages (producer finish + communication cost on the
//     contention-free bus, the message's recorded finish otherwise) and, if
//     cfg.RespectRelease, no earlier than its release time;
//  4. no message departs before its producer finishes.
//
// The message model adds its own checks. Under bus contention,
// cross-processor transfers do not overlap on the bus. Over a Network,
// every cross-processor message's Hops follow its route contiguously in
// time, each lasting its link's transfer time, the first departing no
// earlier than the producer's finish and the last ending at the message's
// Finish; and no link carries two overlapping transfers.
func Validate(g *taskgraph.Graph, sys *platform.System, res *core.Result, s *Schedule, cfg Config) error {
	const eps = 1e-9
	if cfg.Preemptive && cfg.Network != nil {
		return ErrPreemptiveNetwork
	}
	net := cfg.Network
	// Only the contention-free bus leaves a message's arrival to be
	// computed from the platform; every other model records it as the
	// message's Finish.
	onBus := net == nil && !cfg.Preemptive
	bus, computed := onBus && sys.BusContention(), onBus && !sys.BusContention()

	type iv struct {
		id            taskgraph.NodeID
		start, finish float64
	}
	perProc := make([][]iv, sys.NumProcs())
	var busIvs []iv
	var perLink [][]iv
	if net != nil {
		perLink = make([][]iv, net.NumLinks())
	}
	var perTask [][]Segment
	if cfg.Preemptive {
		perTask = make([][]Segment, g.NumNodes())
		for _, seg := range s.Segments {
			if seg.Proc < 0 || seg.Proc >= sys.NumProcs() {
				return fmt.Errorf("segment on invalid processor %d", seg.Proc)
			}
			if seg.Node < 0 || int(seg.Node) >= g.NumNodes() {
				return fmt.Errorf("segment of unknown node %v", seg.Node)
			}
			perTask[seg.Node] = append(perTask[seg.Node], seg)
			perProc[seg.Proc] = append(perProc[seg.Proc], iv{id: seg.Node, start: seg.Start, finish: seg.End})
		}
	}

	for _, n := range g.NodesView() {
		id := n.ID
		if n.Kind == taskgraph.KindSubtask {
			p := s.Proc[id]
			if p < 0 || p >= sys.NumProcs() {
				return fmt.Errorf("subtask %v on invalid processor %d", id, p)
			}
			if n.Pinned != taskgraph.Unpinned && p != n.Pinned {
				return fmt.Errorf("subtask %v pinned to processor %d but scheduled on %d", id, n.Pinned, p)
			}
			want := sys.ExecTime(n.Cost, p)
			start := s.Start[id]
			if cfg.Preemptive {
				first, err := checkSegments(perTask[id], id, p, want, s)
				if err != nil {
					return err
				}
				start = first
			} else {
				if d := s.Finish[id] - s.Start[id]; math.Abs(d-want) > eps {
					return fmt.Errorf("subtask %v duration %v, want %v", id, d, want)
				}
				perProc[p] = append(perProc[p], iv{id: id, start: s.Start[id], finish: s.Finish[id]})
			}
			if cfg.RespectRelease && start < res.Release[id]-eps {
				return fmt.Errorf("subtask %v starts %v before release %v", id, start, res.Release[id])
			}
			for _, m := range g.Pred(id) {
				arrival := s.Finish[m]
				if computed {
					u := g.Pred(m)[0]
					arrival = s.Finish[u] + sys.CommCost(s.Proc[u], p, g.Node(m).Size)
				}
				if start < arrival-eps {
					return fmt.Errorf("subtask %v starts %v before message %v arrives %v",
						id, start, m, arrival)
				}
			}
			continue
		}
		// Message: transfer cannot begin before the producer finishes.
		u := g.Pred(id)[0]
		if s.Start[id] < s.Finish[u]-eps {
			return fmt.Errorf("message %v starts %v before producer finishes %v", id, s.Start[id], s.Finish[u])
		}
		switch {
		case net != nil:
			if err := checkHops(g, net, s, id); err != nil {
				return err
			}
			for _, h := range s.Hops[id] {
				perLink[h.Link] = append(perLink[h.Link], iv{id: id, start: h.Start, finish: h.End})
			}
		case bus && s.Finish[id] > s.Start[id]+eps:
			busIvs = append(busIvs, iv{id: id, start: s.Start[id], finish: s.Finish[id]})
		}
	}

	checkOverlap := func(name string, ivs []iv) error {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].finish-eps {
				return fmt.Errorf("%s: %v [%v,%v) overlaps %v [%v,%v)", name,
					ivs[i-1].id, ivs[i-1].start, ivs[i-1].finish,
					ivs[i].id, ivs[i].start, ivs[i].finish)
			}
		}
		return nil
	}
	for p, ivs := range perProc {
		if err := checkOverlap(fmt.Sprintf("processor %d", p), ivs); err != nil {
			return err
		}
	}
	if err := checkOverlap("bus", busIvs); err != nil {
		return err
	}
	for l, ivs := range perLink {
		if err := checkOverlap(fmt.Sprintf("link %d", l), ivs); err != nil {
			return err
		}
	}
	return nil
}

// checkSegments checks subtask id's execution segments of a preemptive
// schedule: they run on its processor p, sum to its execution time want,
// and the first starts at Start and the last ends at Finish. It returns
// the first segment's start, where the subtask's inputs must have arrived.
func checkSegments(segs []Segment, id taskgraph.NodeID, p int, want float64, s *Schedule) (float64, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("subtask %v has no execution segments", id)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	total := 0.0
	for _, seg := range segs {
		total += seg.End - seg.Start
		if seg.Proc != p {
			return 0, fmt.Errorf("subtask %v placed on %d but ran on %d", id, p, seg.Proc)
		}
	}
	if math.Abs(total-want) > 1e-6 {
		return 0, fmt.Errorf("subtask %v executed %v, want %v", id, total, want)
	}
	if math.Abs(segs[0].Start-s.Start[id]) > 1e-6 {
		return 0, fmt.Errorf("subtask %v first segment %v != Start %v", id, segs[0].Start, s.Start[id])
	}
	if last := segs[len(segs)-1].End; math.Abs(last-s.Finish[id]) > 1e-6 {
		return 0, fmt.Errorf("subtask %v last segment %v != Finish %v", id, last, s.Finish[id])
	}
	return segs[0].Start, nil
}

// checkHops checks message id's link reservations over net: a co-located
// message has none, and a cross-processor one reserves its route's links in
// order, contiguously in time from its producer's finish, each for the
// link's transfer time, ending at the message's Finish.
func checkHops(g *taskgraph.Graph, net *channel.Network, s *Schedule, id taskgraph.NodeID) error {
	const eps = 1e-9
	u, w := g.Pred(id)[0], g.Succ(id)[0]
	hops := s.Hops[id]
	if len(hops) == 0 {
		if s.Proc[u] != s.Proc[w] {
			return fmt.Errorf("cross-processor message %v has no hops", id)
		}
		return nil
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
		want := net.Link(h.Link).PerItem * g.Node(id).Size
		if math.Abs((h.End-h.Start)-want) > eps {
			return fmt.Errorf("message %v hop %d duration %v, want %v", id, hi, h.End-h.Start, want)
		}
		prevEnd = h.End
	}
	if math.Abs(s.Finish[id]-prevEnd) > eps {
		return fmt.Errorf("message %v finish %v != last hop end %v", id, s.Finish[id], prevEnd)
	}
	return nil
}

// Gantt renders a per-processor ASCII Gantt chart of the schedule, scaled
// to the given character width.
func Gantt(g *taskgraph.Graph, sys *platform.System, s *Schedule, width int) string {
	if width < 10 {
		width = 10
	}
	if s.Makespan <= 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / s.Makespan
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan %.2f, 1 char = %.2f time units\n", s.Makespan, s.Makespan/float64(width))
	rows := make([][]byte, sys.NumProcs())
	for p := range rows {
		rows[p] = make([]byte, width)
		for i := range rows[p] {
			rows[p][i] = '.'
		}
	}
	draw := func(p int, node taskgraph.NodeID, start, finish float64) {
		lo := int(start * scale)
		hi := int(finish * scale)
		if hi >= width {
			hi = width - 1
		}
		mark := byte('a' + int(node)%26)
		for i := lo; i <= hi; i++ {
			rows[p][i] = mark
		}
	}
	if len(s.Segments) > 0 {
		for _, seg := range s.Segments {
			draw(seg.Proc, seg.Node, seg.Start, seg.End)
		}
	} else {
		for _, n := range g.NodesView() {
			if n.Kind == taskgraph.KindSubtask && s.Proc[n.ID] >= 0 {
				draw(s.Proc[n.ID], n.ID, s.Start[n.ID], s.Finish[n.ID])
			}
		}
	}
	for p, row := range rows {
		fmt.Fprintf(&sb, "P%-2d |%s|\n", p, row)
	}
	return sb.String()
}
