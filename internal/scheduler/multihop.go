package scheduler

import (
	"math"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/taskgraph"
)

// Hop is one reserved link transfer of a message.
type Hop struct {
	Link       channel.LinkID
	Start, End float64
}

// bindNetwork prepares the Scratch's link tables for a run over net and
// points s.Hops at the Scratch's cleared hop index.
func (sc *Scratch) bindNetwork(net *channel.Network, s *Schedule) {
	if sc.hopIndex == nil {
		sc.hopIndex = make(map[taskgraph.NodeID][]Hop)
	}
	clear(sc.hopIndex)
	s.Hops = sc.hopIndex
	sc.hops = sc.hops[:0]
	sc.linkFree = resize(sc.linkFree, net.NumLinks())
	clear(sc.linkFree)
	sc.linkTmp = resize(sc.linkTmp, net.NumLinks())
	sc.linkStamp = resize(sc.linkStamp, net.NumLinks()) // stale stamps are below every later epoch
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
// s.Hops, sliced from the hop backing (slices cut before the backing grew
// keep the old array, which is never written again).
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
		s.Hops[m] = hops
	}
}
