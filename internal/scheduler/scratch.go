package scheduler

import (
	"errors"

	"deadlinedist/internal/core"
	"deadlinedist/internal/taskgraph"
)

// Scratch holds the reusable working buffers of the list scheduler. Batch
// drivers (the experiment engine schedules graphs × assigners × sizes runs
// per sweep) create one Scratch per worker goroutine and call its Run,
// amortizing all per-run queue, bookkeeping and schedule allocations. Every
// model shares one dispatch loop and its buffers; a Preemptive run
// simulates over that loop's placement. Run returns the Scratch's own
// Schedule storage (its Hops included), valid until the next Run, so a
// caller consumes each schedule before requesting the next; the
// package-level Run uses a fresh Scratch and so returns share-nothing
// schedules. A Scratch is not safe for concurrent use.
type Scratch struct {
	keys     []float64
	pending  []int
	procFree []float64
	ready    readyHeap

	// Dispatch order of the last run (dispatchOrder): the subtasks in
	// placement order, computed for graph orderOf under the priority keys
	// keys still holds. orderOf is nil when no order is held.
	order   []taskgraph.NodeID
	orderOf *taskgraph.Graph

	// Preemptive-simulation buffers.
	procReady   []readyHeap
	remaining   []float64
	pendingMsgs []int
	arrivedAt   []float64
	lastSeg     []int
	events      []readyEvent

	// Network buffers: candidate link-free times (linkTmp, valid where
	// linkStamp equals the never-reset epoch), the one hop backing every
	// published Schedule.Hops slice aliases, and the recycled Hops map.
	linkFree  []float64
	linkTmp   []float64
	linkStamp []uint64
	epoch     uint64
	hops      []Hop
	hopIndex  map[taskgraph.NodeID][]Hop

	// Inbound-message dispatch order (contended bus and network runs):
	// msgOrder[v] lists subtask v's predecessor messages sorted by (absolute
	// deadline, NodeID). The distribution is fixed for a whole run, so the
	// order is built once per run instead of re-sorted for every candidate
	// processor of every dispatch step. planBuf is the contended bus's
	// per-call reservation buffer.
	msgOrder [][]taskgraph.NodeID
	msgFlat  []taskgraph.NodeID
	planBuf  []busInterval

	// prod[m] is message m's producer subtask (its single predecessor),
	// bound once per graph (prodOf) so the dispatch inner loops stop
	// re-deriving g.Pred(m)[0] through the CSR header per visit;
	// taskgraph.None for non-message nodes.
	prod   []taskgraph.NodeID
	prodOf *taskgraph.Graph

	// Recycled schedules: the list scheduler's, and the preemptive
	// simulation's, which is layered over the list scheduler's placement.
	sched    *Schedule
	preSched *Schedule
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// schedule returns the Schedule to fill for an n-node run: the recycled
// slot, reset to the fresh-allocation state.
func (sc *Scratch) schedule(slot **Schedule, n int) *Schedule {
	if *slot == nil {
		*slot = &Schedule{}
	}
	s := *slot
	s.Start = resize(s.Start, n)
	s.Finish = resize(s.Finish, n)
	s.Proc = resize(s.Proc, n)
	clear(s.Start)
	clear(s.Finish)
	s.Makespan = 0
	s.Order = s.Order[:0]
	s.Segments = s.Segments[:0]
	s.Hops = nil
	return s
}

// bindProducers fills prod for g, unless it is already bound to g (a
// graph's topology is immutable once built). Messages are built by
// Builder.Connect with exactly one predecessor (the producing subtask), so
// prod[m] = first CSR predecessor of m.
func (sc *Scratch) bindProducers(g *taskgraph.Graph) {
	if sc.prodOf == g {
		return
	}
	sc.prodOf = g
	n := g.NumNodes()
	sc.prod = resize(sc.prod, n)
	kinds := g.Kinds()
	predOff, predAdj := g.PredCSR()
	for id := 0; id < n; id++ {
		if kinds[id] == taskgraph.KindMessage && predOff[id+1] > predOff[id] {
			sc.prod[id] = predAdj[predOff[id]]
		} else {
			sc.prod[id] = taskgraph.None
		}
	}
}

// dispatchOrder fills order with the subtasks in the order the list
// scheduler places them: repeatedly the ready subtask of least (key,
// NodeID) under the keys in sc.keys, where a subtask is ready once all its
// producers are placed. Readiness does not depend on where the producers
// are placed, so the order is a function of the graph and the keys alone.
// The previous run's order is kept when both are unchanged (keysChanged,
// from priorityKeysInto, compares the keys bit for bit), as they are when
// one distribution is scheduled on several platforms.
func (sc *Scratch) dispatchOrder(g *taskgraph.Graph, keysChanged bool) error {
	if sc.orderOf == g && !keysChanged {
		return nil
	}
	sc.orderOf = nil
	n := g.NumNodes()
	kinds := g.Kinds()
	succOff, succAdj := g.SuccCSR()
	predOff, predAdj := g.PredCSR()

	// pending counts unplaced producers (messages are transparent for
	// readiness: a subtask is schedulable once its producing subtasks are
	// placed). Initially-ready subtasks go straight onto the heap.
	sc.pending = resize(sc.pending, n)
	pending := sc.pending
	sc.ready.reset(sc.keys)
	numSubtasks := 0
	for id := 0; id < n; id++ {
		pending[id] = 0
		if kinds[id] != taskgraph.KindSubtask {
			continue
		}
		numSubtasks++
		for _, m := range predAdj[predOff[id]:predOff[id+1]] {
			pending[id] += int(predOff[m+1] - predOff[m]) // each message has one producer
		}
		if pending[id] == 0 {
			sc.ready.push(taskgraph.NodeID(id))
		}
	}
	if cap(sc.order) < numSubtasks {
		sc.order = make([]taskgraph.NodeID, 0, numSubtasks)
	}
	sc.order = sc.order[:0]
	for range numSubtasks {
		if sc.ready.len() == 0 {
			return errors.New("internal: no schedulable subtask (cycle?)")
		}
		// The heap's (key, NodeID) order is a strict total order, so pop
		// yields the unique highest-priority ready subtask.
		v := sc.ready.pop()
		sc.order = append(sc.order, v)
		for _, m := range succAdj[succOff[v]:succOff[v+1]] {
			for _, w := range succAdj[succOff[m]:succOff[m+1]] {
				pending[w]--
				if pending[w] == 0 {
					sc.ready.push(w)
				}
			}
		}
	}
	sc.orderOf = g
	return nil
}

// buildMsgOrder fills msgOrder with every subtask's predecessor messages in
// increasing (absolute deadline, NodeID) order — the dispatch order of both
// the contended bus and the multihop links. Deadlines are fixed for the whole
// run, so sorting here once replaces a sort per candidate processor per step.
// Predecessor lists are short (a handful of inbound messages), so an
// insertion sort beats sort.Slice and keeps the run allocation-free; the
// NodeID tie-break makes the key a strict total order, so the sorted
// sequence is unique and algorithm-independent.
func (sc *Scratch) buildMsgOrder(g *taskgraph.Graph, res *core.Result) {
	n := g.NumNodes()
	sc.msgOrder = resize(sc.msgOrder, n)
	kinds := g.Kinds()
	predOff, predAdj := g.PredCSR()
	total := 0
	for id := 0; id < n; id++ {
		if kinds[id] == taskgraph.KindSubtask {
			total += int(predOff[id+1] - predOff[id])
		}
	}
	// One flat backing sized up front: segments must not be relocated by
	// later appends, since msgOrder aliases into it.
	sc.msgFlat = resize(sc.msgFlat, total)
	abs := res.Absolute
	pos := 0
	for id := 0; id < n; id++ {
		nid := taskgraph.NodeID(id)
		sc.msgOrder[nid] = nil
		if kinds[id] != taskgraph.KindSubtask {
			continue
		}
		preds := predAdj[predOff[id]:predOff[id+1]]
		if len(preds) == 0 {
			continue
		}
		seg := sc.msgFlat[pos : pos+len(preds)]
		pos += len(preds)
		copy(seg, preds)
		for i := 1; i < len(seg); i++ {
			m := seg[i]
			dm := abs[m]
			j := i - 1
			for j >= 0 && (abs[seg[j]] > dm || (abs[seg[j]] == dm && seg[j] > m)) {
				seg[j+1] = seg[j]
				j--
			}
			seg[j+1] = m
		}
		sc.msgOrder[nid] = seg
	}
}

// readyEvent is a pending "subtask v becomes ready at time t" event of the
// preemptive simulation.
type readyEvent struct {
	t float64
	v taskgraph.NodeID
}

// resize returns buf with length n, reusing its storage when large enough.
// Contents are unspecified; callers initialize what they read.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
