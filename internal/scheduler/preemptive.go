package scheduler

import (
	"errors"
	"math"
	"slices"

	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// Segment is one uninterrupted execution burst of a subtask on a
// processor. Non-preemptive schedules have one segment per subtask;
// preemptive schedules may split subtasks across several.
type Segment struct {
	Node       taskgraph.NodeID
	Proc       int
	Start, End float64
}

const simEps = 1e-9

// preempt re-simulates the list scheduler's placement base under a
// preemptive EDF run-time model, the Section 8 alternative to the paper's
// non-preemptive time-driven model: execution is simulated event-driven
// with preemptive EDF dispatch on every processor, so at any instant each
// processor runs its ready subtask with the earliest absolute deadline,
// preempting whenever a more urgent subtask becomes ready. Messages leave
// when their producer completes and arrive after the platform
// communication cost (contention-free, concurrent with computation). The
// returned schedule carries the execution Segments; Start is the first
// dispatch and Finish the completion of each subtask.
func (sc *Scratch) preempt(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config, base *Schedule) (*Schedule, error) {
	n := g.NumNodes()
	out := sc.schedule(&sc.preSched, n)
	out.Proc = base.Proc
	for i := range out.Start {
		out.Start[i] = -1
	}

	sc.remaining = resize(sc.remaining, n)
	remaining := sc.remaining
	sc.pendingMsgs = resize(sc.pendingMsgs, n)
	pendingMsgs := sc.pendingMsgs
	sc.arrivedAt = resize(sc.arrivedAt, n)
	clear(sc.arrivedAt)
	numSubtasks := 0
	for id := 0; id < n; id++ {
		nid := taskgraph.NodeID(id)
		remaining[nid], pendingMsgs[nid] = 0, 0
		node := g.Node(nid)
		if node.Kind != taskgraph.KindSubtask {
			continue
		}
		numSubtasks++
		remaining[nid] = sys.ExecTime(node.Cost, base.Proc[nid])
		pendingMsgs[nid] = len(g.Pred(nid))
	}

	// Pending ready events, one per not-yet-ready subtask. Workloads are
	// small (hundreds of nodes), so linear scans keep this simple.
	sc.events = sc.events[:0]
	for id := 0; id < n; id++ {
		nid := taskgraph.NodeID(id)
		node := g.Node(nid)
		if node.Kind == taskgraph.KindSubtask && pendingMsgs[nid] == 0 {
			sc.events = append(sc.events, readyEvent{t: readyTime(res, cfg, nid, node.Release), v: nid})
		}
	}

	// Per-processor EDF ready queues: deterministic (absolute deadline,
	// NodeID) min-heaps. The running task is the heap minimum; it is only
	// ever removed on completion, so removal is a pop.
	sc.procReady = resize(sc.procReady, sys.NumProcs())
	ready := sc.procReady
	for p := range ready {
		ready[p].reset(res.Absolute)
	}
	sc.lastSeg = resize(sc.lastSeg, sys.NumProcs())
	for i := range sc.lastSeg {
		sc.lastSeg[i] = -1
	}

	completions := 0
	t := 0.0
	maxIter := 8*(n+1)*(n+1) + 64
	for iter := 0; completions < numSubtasks; iter++ {
		if iter > maxIter {
			return nil, errors.New("internal: preemptive simulation did not converge")
		}

		// Admit every subtask that is ready by the current time.
		kept := sc.events[:0]
		for _, e := range sc.events {
			if e.t <= t+simEps {
				ready[base.Proc[e.v]].push(e.v)
			} else {
				kept = append(kept, e)
			}
		}
		sc.events = kept

		// The running task on each processor is the EDF-minimum ready
		// task; the horizon is the earliest completion or ready event.
		next := math.Inf(1)
		for p := range ready {
			if v := ready[p].peek(); v != taskgraph.None {
				if c := t + remaining[v]; c < next {
					next = c
				}
			}
		}
		for _, e := range sc.events {
			if e.t < next {
				next = e.t
			}
		}
		if math.IsInf(next, 1) {
			return nil, errors.New("internal: preemptive simulation stalled (no runnable subtask)")
		}
		if next < t {
			next = t
		}

		// Advance every processor to the horizon.
		for p := range ready {
			v := ready[p].peek()
			if v == taskgraph.None {
				continue
			}
			if out.Start[v] < 0 {
				out.Start[v] = t
			}
			sc.addSegment(out, v, p, t, next)
			remaining[v] -= next - t
			if remaining[v] <= simEps {
				ready[p].pop() // v is the minimum (peek returned it)
				sc.complete(g, sys, res, cfg, base, out, v, next)
				completions++
			}
		}
		t = next
	}

	// Deterministic segment order for consumers.
	slices.SortFunc(out.Segments, segmentOrder)
	return out, nil
}

// readyTime is when subtask v, whose inputs have all arrived by arrived,
// becomes ready: no earlier than its release under RespectRelease.
func readyTime(res *core.Result, cfg Config, v taskgraph.NodeID, arrived float64) float64 {
	if cfg.RespectRelease && res.Release[v] > arrived {
		return res.Release[v]
	}
	return arrived
}

// addSegment records that v runs on p over [start, end], extending p's last
// segment when it is v's and ends at start.
func (sc *Scratch) addSegment(out *Schedule, v taskgraph.NodeID, p int, start, end float64) {
	if end < start {
		end = start
	}
	if idx := sc.lastSeg[p]; idx >= 0 {
		last := &out.Segments[idx]
		if last.Node == v && math.Abs(last.End-start) <= simEps {
			last.End = end
			return
		}
	}
	out.Segments = append(out.Segments, Segment{Node: v, Proc: p, Start: start, End: end})
	sc.lastSeg[p] = len(out.Segments) - 1
}

// complete records v's completion at t and sends its messages: each
// consumer whose last input this was gets a ready event.
func (sc *Scratch) complete(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config,
	base, out *Schedule, v taskgraph.NodeID, t float64) {

	out.Finish[v] = t
	out.Order = append(out.Order, v)
	if t > out.Makespan {
		out.Makespan = t
	}
	for _, m := range g.Succ(v) {
		w := g.Succ(m)[0]
		cost := sys.CommCost(base.Proc[v], base.Proc[w], g.Node(m).Size)
		out.Start[m] = t
		out.Finish[m] = t + cost
		sc.pendingMsgs[w]--
		if out.Finish[m] > sc.arrivedAt[w] {
			sc.arrivedAt[w] = out.Finish[m]
		}
		if sc.pendingMsgs[w] == 0 {
			sc.events = append(sc.events, readyEvent{t: readyTime(res, cfg, w, sc.arrivedAt[w]), v: w})
		}
	}
}

// segmentOrder orders segments by start, then processor. It is negative
// exactly when a segment was "less" under the sort.Slice predicate it
// replaces, so the sorted order is unchanged.
func segmentOrder(a, b Segment) int {
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	return a.Proc - b.Proc
}

// Preemptions returns how many times subtasks were preempted: the number
// of execution segments beyond one per subtask. Zero for schedules without
// segment information.
func (s *Schedule) Preemptions(g *taskgraph.Graph) int {
	if len(s.Segments) == 0 {
		return 0
	}
	return len(s.Segments) - g.NumSubtasks()
}
