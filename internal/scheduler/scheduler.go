// Package scheduler implements the task-assignment-and-scheduling stage of
// the paper's evaluation pipeline (Section 5.3): a deadline-driven list
// scheduler. At each scheduling step the subtask with the earliest absolute
// deadline among all schedulable subtasks (those whose predecessors have
// been scheduled) is selected and placed, non-preemptively, on the
// processor that yields the earliest start time. Interprocessor messages
// are charged the platform's communication cost; in the paper's base model
// they travel concurrently with computation and without contention, while
// the optional contended-bus mode serializes them on a single shared bus in
// deadline order (deadline-based message scheduling, made possible because
// the distribution stage assigns deadlines to communication subtasks too).
//
// The Section 8 variants change only the model, so they are Config fields
// of the one Run and the one Validate: Network routes messages over a
// multihop network of real-time channels through the same dispatch loop,
// and Preemptive re-simulates the placement under preemptive EDF.
package scheduler

import (
	"errors"
	"fmt"
	"math"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Config tunes the list scheduler.
type Config struct {
	// RespectRelease makes the scheduler treat the distributed release
	// times as dispatch constraints (start >= r_i), modelling the paper's
	// time-driven run-time model in which slices occupy static positions
	// in time (experiment.Default enables this). When false the scheduler
	// dispatches as soon as inputs arrive, using the windows only for EDF
	// priorities — a work-conserving ablation.
	RespectRelease bool

	// Policy is the dispatch priority rule (default PolicyEDF, the
	// paper's deadline-driven scheduler).
	Policy Policy

	// Preemptive selects the Section 8 run-time model: the list
	// scheduler's placement is re-simulated under preemptive EDF, and the
	// Schedule carries the execution Segments. Messages are then
	// contention-free, so it cannot be combined with Network.
	Preemptive bool

	// Network, when non-nil, routes messages over a multihop network
	// (reference [13]-style real-time channels) instead of the platform's
	// bus: a message traverses its fixed shortest route store-and-forward,
	// every link serializes its transfers, and each subtask's incoming
	// messages reserve links in message-deadline order. It must span the
	// platform's processors, and the Schedule carries the Hops.
	Network *channel.Network
}

// Schedule is the outcome of one list-scheduling run. All slices are
// indexed by taskgraph.NodeID. Message nodes record their transfer interval
// (zero-length when co-located) and Proc = -1.
type Schedule struct {
	Start  []float64
	Finish []float64
	// Proc is the processor each subtask executes on; -1 for messages.
	Proc []int
	// Makespan is the latest subtask finish time.
	Makespan float64
	// Order records the subtasks in the order the list scheduler placed
	// them (the dispatch order; completion order for preemptive runs).
	Order []taskgraph.NodeID
	// Segments holds per-burst execution intervals. Nil for
	// non-preemptive schedules (one implicit segment per subtask); filled
	// by a Preemptive run.
	Segments []Segment
	// Hops maps each cross-processor message to its reserved link
	// transfers in route order (co-located messages have no entry). Nil
	// unless the run used a Network. A Scratch's runs slice every
	// message's hops out of one backing owned by the Scratch, so they stay
	// valid only until its next run.
	Hops map[taskgraph.NodeID][]Hop
}

// Errors returned by Run.
var (
	ErrNilInput = errors.New("scheduler needs a graph, a platform and a distribution result")
	ErrBadSize  = errors.New("distribution result does not match the graph")
	ErrBadPin   = errors.New("strict locality constraint exceeds platform size")
	// ErrUnplaceable reports a subtask that no processor can start at a
	// finite time: finite costs whose sums overflow float64 have pushed
	// every candidate's start to +Inf.
	ErrUnplaceable = errors.New("no processor can start the subtask at a finite time")
	// ErrPreemptiveNetwork refuses a Config with both Preemptive and
	// Network: the preemptive simulation models contention-free messages
	// only.
	ErrPreemptiveNetwork = errors.New("preemptive simulation cannot route messages over a network")
)

// Run schedules g on sys using the deadline annotations in res, under the
// run-time and message model cfg selects. It is a convenience wrapper over
// Scratch.Run with fresh buffers; batch drivers should hold a Scratch per
// goroutine and call its method instead.
func Run(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config) (*Schedule, error) {
	return NewScratch().Run(g, sys, res, cfg)
}

// Run schedules g on sys using the deadline annotations in res, reusing the
// Scratch's buffers. The list scheduler places every subtask; a Preemptive
// run then re-simulates that placement under preemptive EDF.
func (sc *Scratch) Run(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config) (*Schedule, error) {
	if g == nil || sys == nil || res == nil {
		return nil, ErrNilInput
	}
	if cfg.Preemptive && cfg.Network != nil {
		return nil, ErrPreemptiveNetwork
	}
	s, err := sc.dispatch(g, sys, res, cfg)
	if err != nil || !cfg.Preemptive {
		return s, err
	}
	return sc.preempt(g, sys, res, cfg, s)
}

// ProcsUsed returns one more than the highest processor s places a subtask
// on: the schedule uses only processors 0 to ProcsUsed()-1.
func (s *Schedule) ProcsUsed() int {
	used := 0
	for _, p := range s.Proc {
		if p >= used {
			used = p + 1
		}
	}
	return used
}

// Carries reports whether a schedule Run produced on from, using its first
// used processors only (Schedule.ProcsUsed), is bit for bit the schedule
// Run produces for the same graph and distribution on to under cfg. It
// holds when from left a processor idle, to has at least used processors,
// both are one platform.Class with interchangeable processors, and no
// Network routes the messages. A subtask becomes ready once its producers
// are placed, wherever they are placed, so the dispatch order is the same
// on both. A processor above the used ones hosts no producer and is idle
// throughout, so it offers every subtask the same start as processor used,
// which from offered and never chose (ties go to the lower index). Hence
// adding or removing such processors changes no placement, no bus plan and
// no preemptive re-simulation.
func Carries(used int, from, to *platform.System, cfg Config) bool {
	if cfg.Network != nil || used >= from.NumProcs() || used > to.NumProcs() {
		return false
	}
	cf, ok := from.Class()
	if !ok || !cf.Interchangeable() {
		return false
	}
	ct, ok := to.Class()
	return ok && ct == cf
}

// dispatch is the one list scheduler: it places the subtasks in their
// dispatch order (dispatchOrder), each on the processor that yields the
// earliest start. Messages travel over the platform's bus model when
// cfg.Network is nil and over that multihop network otherwise. The two
// models differ only in how a candidate processor's inbound arrivals are
// costed (stBounded, mhBounded) and how the winner's messages are
// committed (commitMessages, commitInbound).
func (sc *Scratch) dispatch(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config) (*Schedule, error) {
	net := cfg.Network
	if net != nil && net.NumProcs() != sys.NumProcs() {
		return nil, fmt.Errorf("network spans %d processors, platform has %d: %w",
			net.NumProcs(), sys.NumProcs(), ErrBadSize)
	}
	n := g.NumNodes()
	if len(res.Absolute) != n || len(res.Release) != n {
		return nil, fmt.Errorf("%d annotations for %d nodes: %w", len(res.Absolute), n, ErrBadSize)
	}
	sc.keys = resize(sc.keys, n)
	changed, err := priorityKeysInto(sc.keys, g, res, cfg.Policy)
	if err != nil {
		return nil, err
	}
	sc.bindProducers(g)
	if err := sc.dispatchOrder(g, changed); err != nil {
		return nil, err
	}
	contended := net == nil && sys.BusContention()
	if contended || net != nil {
		sc.buildMsgOrder(g, res)
	}
	prod := sc.prod
	costs := g.Costs()
	predOff, predAdj := g.PredCSR()

	s := sc.schedule(&sc.sched, n)
	for i := range s.Proc {
		s.Proc[i] = -1
	}
	if net != nil {
		sc.bindNetwork(net, s)
	}

	sc.procFree = resize(sc.procFree, sys.NumProcs())
	clear(sc.procFree)
	procFree := sc.procFree
	busFree := 0.0
	// On a homogeneous platform every processor runs v for the same time,
	// so it is computed once per subtask instead of once per candidate.
	homogeneous := sys.Homogeneous()

	for _, v := range sc.order {
		// Choose the processor yielding the earliest start time. Subtasks
		// with strict locality constraints only consider their pinned
		// processor.
		lo, hi := 0, sys.NumProcs()
		if pin := g.PinnedOf(v); pin != taskgraph.Unpinned {
			if pin >= sys.NumProcs() {
				return nil, fmt.Errorf("subtask %q pinned to processor %d on a %d-processor platform: %w",
					g.Node(v).Name, pin, sys.NumProcs(), ErrBadPin)
			}
			lo, hi = pin, pin+1
		}

		// Summarize where v's inputs come from: -1 when v has no
		// predecessors, the single producer processor when all producers
		// are co-located with each other, -2 when they are spread. A
		// candidate matching a non-spread summary has no cross-processor
		// messages, so its contended-bus plan is empty and stBounded skips
		// the serialization walk entirely.
		crossProc := -1
		if contended {
			for _, m := range predAdj[predOff[v]:predOff[v+1]] {
				pu := s.Proc[prod[m]]
				if crossProc == -1 {
					crossProc = pu
				} else if crossProc != pu {
					crossProc = -2
					break
				}
			}
		}

		exec := sys.ExecTime(costs[v], lo)
		bestProc, bestStart, bestFinish := -1, math.Inf(1), math.Inf(1)
		for p := lo; p < hi; p++ {
			if !homogeneous {
				exec = sys.ExecTime(costs[v], p)
			}
			var start float64
			var ok bool
			if net == nil {
				start, ok = sc.stBounded(g, sys, res, s, cfg, v, p, procFree[p], busFree,
					exec, bestStart, bestFinish, contended, crossProc)
			} else {
				var err error
				if start, ok, err = sc.mhBounded(g, net, s, res, cfg, v, p, procFree[p],
					exec, bestStart, bestFinish); err != nil {
					return nil, err
				}
			}
			if !ok {
				continue // pruned: provably cannot beat the incumbent
			}
			finish := start + exec
			// Earliest finish breaks start-time ties on heterogeneous
			// platforms; on homogeneous ones it equals earliest start.
			if finish < bestFinish || (finish == bestFinish && start < bestStart) {
				bestProc, bestStart, bestFinish = p, start, finish
			}
		}

		if bestProc < 0 {
			return nil, fmt.Errorf("subtask %q: %w", g.Node(v).Name, ErrUnplaceable)
		}
		// Commit: reserve the bus or the links for incoming cross-processor
		// messages (deadline order) and record message transfer intervals.
		if net == nil {
			busFree = sc.commitMessages(g, sys, s, v, bestProc, busFree)
		} else {
			sc.commitInbound(g, net, s, v, bestProc)
		}

		s.Proc[v] = bestProc
		s.Start[v] = bestStart
		s.Finish[v] = bestFinish
		procFree[bestProc] = bestFinish
		if bestFinish > s.Makespan {
			s.Makespan = bestFinish
		}
	}
	s.Order = append(s.Order, sc.order...)
	return s, nil
}

// stBounded computes the earliest start time of subtask v on candidate
// processor p like st (the unpruned reference, kept with the shadow
// dispatcher in shadow_test.go), with two dispatch-loop optimizations
// layered on top; for any candidate it does not prune, the returned start
// is bit-identical to st's.
//
// Branch-and-bound: start only accumulates through max, so it is
// monotonically non-decreasing as constraints merge in. The moment the
// partial start already fails the selection predicate of Run's candidate
// loop — finish = start+exec would lose to (bestStart, bestFinish) — no
// later constraint can win it back, and the candidate is abandoned
// (ok=false). Both the pruned candidate and st's fully-computed one would
// have been rejected by the same comparison, so the chosen processor is
// unchanged. The prune compares start+exec (not start against
// bestFinish-exec, which differs under float rounding) so the test is the
// selection predicate itself.
//
// Bus-plan elision: when crossProc says every producer of v sits on p (or
// v has no producers), the candidate's bus plan is empty and only
// co-located producer-finish constraints apply, so the deadline-order
// serialization walk is skipped.
func (sc *Scratch) stBounded(g *taskgraph.Graph, sys *platform.System, res *core.Result, s *Schedule,
	cfg Config, v taskgraph.NodeID, p int, procFree, busFree float64,
	exec, bestStart, bestFinish float64, contended bool, crossProc int) (float64, bool) {

	start := procFree
	if cfg.RespectRelease && res.Release[v] > start {
		start = res.Release[v]
	}
	if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
		return 0, false
	}
	prod := sc.prod
	costs := g.Costs()
	if !contended {
		for _, m := range g.Pred(v) {
			u := prod[m]
			arrival := s.Finish[u] + sys.CommCost(s.Proc[u], p, costs[m])
			if arrival > start {
				start = arrival
				if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
					return 0, false
				}
			}
		}
		return start, true
	}
	if crossProc == -1 {
		return start, true
	}
	if crossProc == p {
		// Every producer is co-located: the bus plan is empty, and each
		// message arrives at its producer's finish.
		for _, m := range g.Pred(v) {
			u := prod[m]
			if s.Finish[u] > start {
				start = s.Finish[u]
				if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
					return 0, false
				}
			}
		}
		return start, true
	}
	// General contended case: fuse st's two walks (bus-plan finish maxes +
	// co-located producer maxes) into one pass over the presorted message
	// order. The serialization variable t evolves exactly as in busPlan;
	// start is the running max of the same values st maxes over, so the
	// final value is identical (max is order-independent).
	t := busFree
	for _, m := range sc.msgOrder[v] {
		u := prod[m]
		pu := s.Proc[u]
		if pu == p {
			if s.Finish[u] > start {
				start = s.Finish[u]
				if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
					return 0, false
				}
			}
			continue
		}
		bs := t
		if s.Finish[u] > bs {
			bs = s.Finish[u]
		}
		t = bs + sys.CommCost(pu, p, costs[m])
		if t > start {
			start = t
			if f := start + exec; f > bestFinish || (f == bestFinish && start >= bestStart) {
				return 0, false
			}
		}
	}
	return start, true
}

// busInterval is one planned bus reservation.
type busInterval struct {
	msg           taskgraph.NodeID
	start, finish float64
}

// busPlan serializes the cross-processor messages feeding v (placed on p)
// on the shared bus, in increasing message-deadline order, starting no
// earlier than busFree and each message's producer finish. It walks the
// presorted msgOrder (co-located messages skipped inline — the cross-
// processor subsequence keeps its deadline order) and fills the Scratch's
// plan buffer, valid until the next busPlan call.
func (sc *Scratch) busPlan(g *taskgraph.Graph, sys *platform.System, s *Schedule,
	v taskgraph.NodeID, p int, busFree float64) []busInterval {

	plan := sc.planBuf[:0]
	costs := g.Costs()
	t := busFree
	for _, m := range sc.msgOrder[v] {
		u := sc.prod[m]
		if s.Proc[u] == p {
			continue
		}
		start := math.Max(t, s.Finish[u])
		finish := start + sys.CommCost(s.Proc[u], p, costs[m])
		plan = append(plan, busInterval{msg: m, start: start, finish: finish})
		t = finish
	}
	sc.planBuf = plan
	return plan
}

// commitMessages records transfer intervals for all messages feeding v and
// returns the updated bus-free time.
func (sc *Scratch) commitMessages(g *taskgraph.Graph, sys *platform.System, s *Schedule,
	v taskgraph.NodeID, p int, busFree float64) float64 {

	if sys.BusContention() {
		plan := sc.busPlan(g, sys, s, v, p, busFree)
		for _, iv := range plan {
			s.Start[iv.msg] = iv.start
			s.Finish[iv.msg] = iv.finish
			if iv.finish > busFree {
				busFree = iv.finish
			}
		}
		for _, m := range g.Pred(v) {
			u := sc.prod[m]
			if s.Proc[u] == p {
				s.Start[m] = s.Finish[u]
				s.Finish[m] = s.Finish[u]
			}
		}
		return busFree
	}
	costs := g.Costs()
	for _, m := range g.Pred(v) {
		u := sc.prod[m]
		s.Start[m] = s.Finish[u]
		s.Finish[m] = s.Finish[u] + sys.CommCost(s.Proc[u], p, costs[m])
	}
	return busFree
}

// Lateness returns the lateness of subtask id: finish time minus absolute
// deadline (non-positive in valid schedules).
func (s *Schedule) Lateness(res *core.Result, id taskgraph.NodeID) float64 {
	return s.Finish[id] - res.Absolute[id]
}

// MaxLateness returns the maximum lateness over all ordinary subtasks: the
// paper's quality measure (more negative = better; an indicator of how far
// from infeasibility the schedule is).
func (s *Schedule) MaxLateness(g *taskgraph.Graph, res *core.Result) float64 {
	max := math.Inf(-1)
	for _, n := range g.NodesView() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if l := s.Lateness(res, n.ID); l > max {
			max = l
		}
	}
	return max
}

// MissedDeadlines counts ordinary subtasks finishing after their absolute
// deadline.
func (s *Schedule) MissedDeadlines(g *taskgraph.Graph, res *core.Result) int {
	missed := 0
	for _, n := range g.NodesView() {
		if n.Kind == taskgraph.KindSubtask && s.Lateness(res, n.ID) > 1e-9 {
			missed++
		}
	}
	return missed
}

// EndToEndLateness returns the maximum lateness of output subtasks against
// their end-to-end deadlines (independent of the distribution's internal
// windows).
func (s *Schedule) EndToEndLateness(g *taskgraph.Graph) float64 {
	max := math.Inf(-1)
	for _, out := range g.OutputsView() {
		if l := s.Finish[out] - g.Node(out).EndToEnd; l > max {
			max = l
		}
	}
	return max
}

// Utilization returns the fraction of processor time spent computing
// between time 0 and the makespan, averaged over processors.
func (s *Schedule) Utilization(g *taskgraph.Graph, sys *platform.System) float64 {
	if s.Makespan <= 0 {
		return 0
	}
	busy := 0.0
	for _, n := range g.NodesView() {
		if n.Kind == taskgraph.KindSubtask {
			busy += s.Finish[n.ID] - s.Start[n.ID]
		}
	}
	return busy / (s.Makespan * float64(sys.NumProcs()))
}
