// Package taskgraph models real-time applications as directed acyclic task
// graphs, following the task model of Jonsson & Shin (ICDCS 1997), Section 3.
//
// Nodes are either ordinary subtasks (computation, characterized by a
// worst-case execution time) or communication subtasks (the message passed
// along a precedence arc, characterized by a size in data items). Every
// precedence arc between two ordinary subtasks is materialized as a
// communication subtask so that deadline-distribution algorithms can assign
// release times and deadlines to messages as well, enabling deadline-based
// communication scheduling.
//
// A subtask with no predecessors is an input subtask; one with no successors
// is an output subtask. Input subtasks carry application release times and
// output subtasks carry end-to-end deadlines.
package taskgraph

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// NodeID identifies a node within a single Graph. IDs are dense indices
// assigned in creation order.
type NodeID int

// None is the invalid NodeID.
const None NodeID = -1

// Kind distinguishes ordinary subtasks from communication subtasks.
type Kind int

const (
	// KindSubtask is an ordinary computation subtask.
	KindSubtask Kind = iota + 1
	// KindMessage is a communication subtask materializing a precedence arc.
	KindMessage
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindSubtask:
		return "subtask"
	case KindMessage:
		return "message"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Node is one vertex of the task graph. For KindSubtask, Cost is the
// worst-case execution time c_i. For KindMessage, Size is the maximum
// message size m_ij in data items; the real communication cost is derived
// from Size by the platform once assignments are known.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string

	// Cost is the worst-case execution time of an ordinary subtask, in
	// abstract time units. Zero for messages.
	Cost float64

	// Size is the message size in data items. Zero for ordinary subtasks.
	Size float64

	// Release is the application release time. Meaningful only for input
	// subtasks (it is the earliest time the application may start).
	Release float64

	// EndToEnd is the end-to-end deadline D measured from the release of
	// the corresponding input subtasks. Meaningful only for output
	// subtasks; zero means "not set".
	EndToEnd float64

	// Pinned is the processor this subtask is strictly assigned to, or
	// Unpinned. Pinned subtasks model the paper's strict locality
	// constraints ("tasks constrained by demands of resources in their
	// physical proximity such as sensors and actuators"); the rest of the
	// graph is placed freely by the scheduler.
	Pinned int
}

// Unpinned marks a subtask without a strict locality constraint.
const Unpinned = -1

// Graph is an immutable-after-build directed acyclic task graph. Build one
// with a Builder. The zero value is an empty graph.
//
// Adjacency is stored in compressed sparse row (CSR) form: the successors
// of node id are succAdj[succOff[id]:succOff[id+1]], likewise for
// predecessors. The flat layout keeps the distribution DP's inner loops on
// contiguous memory (no per-node slice headers, no pointer chasing) and
// makes Clone cheap: topology is immutable after Finalize, so clones share
// the offset/edge/topo arrays and copy only the mutable per-node fields.
type Graph struct {
	nodes []Node

	succOff []int32
	succAdj []NodeID
	predOff []int32
	predAdj []NodeID

	// Flat views of the hot per-node fields, indexed by NodeID. kinds is
	// immutable and shared across clones; costs mirrors Node.Cost for
	// subtasks and Node.Size for messages and is kept in sync by SetCost.
	kinds []Kind
	costs []float64

	topo []NodeID // cached topological order, set by finalize

	// outputs caches the output subtasks (no successors) in ID order; the
	// node set and arcs are immutable after Finalize, so clones share it.
	outputs []NodeID
	// execLP caches the execution-time longest path (the denominator of
	// AvgParallelism); it depends on subtask costs, so SetCost keeps it in
	// sync and Clone copies the value.
	execLP float64
}

// Errors returned by Builder.Finalize and graph validation.
var (
	ErrCycle        = errors.New("task graph contains a cycle")
	ErrEmpty        = errors.New("task graph has no subtasks")
	ErrBadND        = errors.New("node does not exist")
	ErrSelfArc      = errors.New("arc connects a subtask to itself")
	ErrDupArc       = errors.New("duplicate arc between subtasks")
	ErrNotSubtask   = errors.New("arc endpoint is not an ordinary subtask")
	ErrNegativeCost = errors.New("negative or non-finite execution time or message size")
)

// builderArc records one Connect call: subtask u -> message m -> subtask v.
// Finalize replays the list in insertion order to fill the CSR arrays, so
// per-node adjacency order matches the historical append order exactly.
// nameEnd is where the message's name ends in the builder's name arena.
type builderArc struct {
	u, v, m NodeID
	nameEnd int
}

// Builder incrementally constructs a Graph. It is not safe for concurrent
// use. After Finalize succeeds the builder must not be reused.
type Builder struct {
	g Graph
	// arcs is the duplicate-arc set, keyed by arcKey and allocated on
	// first Connect unless a hint sized it.
	arcs map[uint64]struct{}
	list []builderArc
	// names holds every message name back to back; Finalize cuts them all
	// from one string.
	names []byte
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// NewBuilderHint returns an empty Builder presized for roughly nodes total
// nodes (subtasks plus materialized messages). Generators that know their
// counts up front use it to avoid append regrowth; the hint is only a
// capacity and never limits the graph.
func NewBuilderHint(nodes int) *Builder {
	if nodes < 0 {
		nodes = 0
	}
	// Roughly half the nodes of a typical graph are messages, one per arc.
	return newBuilderSized(nodes-nodes/2, nodes/2+1)
}

// newBuilderSized returns an empty Builder presized for subtasks ordinary
// subtasks and arcs arcs: the node list, the arc list, the duplicate-arc
// set and the name arena then never grow while the graph is built.
func newBuilderSized(subtasks, arcs int) *Builder {
	b := &Builder{}
	b.g.nodes = make([]Node, 0, subtasks+arcs)
	b.list = make([]builderArc, 0, arcs)
	b.arcs = make(map[uint64]struct{}, arcs)
	// A name is "m<u>_<v>", and no ID has more digits than the node count.
	digits := 1
	for n := subtasks + arcs; n >= 10; n /= 10 {
		digits++
	}
	b.names = make([]byte, 0, arcs*(2+2*digits))
	return b
}

// finiteCost reports whether x is a valid execution time or message size:
// non-negative and finite (NaN fails both comparisons).
func finiteCost(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// arcKey packs the arc u -> v into one word for the duplicate-arc set.
func arcKey(u, v NodeID) uint64 {
	return uint64(u)<<32 | uint64(uint32(v))
}

// AddSubtask adds an ordinary subtask with the given name and worst-case
// execution time, returning its NodeID. An empty name is replaced by a
// generated one. Errors are deferred to Finalize.
func (b *Builder) AddSubtask(name string, cost float64) NodeID {
	id := NodeID(len(b.g.nodes))
	if name == "" {
		name = "t" + strconv.Itoa(int(id))
	}
	if !finiteCost(cost) && b.err == nil {
		b.err = fmt.Errorf("subtask %q: cost %v: %w", name, cost, ErrNegativeCost)
	}
	b.g.nodes = append(b.g.nodes, Node{ID: id, Kind: KindSubtask, Name: name, Cost: cost, Pinned: Unpinned})
	return id
}

// Connect adds a precedence arc from subtask u to subtask v carrying a
// message of size data items, materialized as a communication subtask. It
// returns the NodeID of the communication subtask. Errors are deferred to
// Finalize.
func (b *Builder) Connect(u, v NodeID, size float64) NodeID {
	if b.err == nil {
		switch {
		case !b.valid(u) || !b.valid(v):
			b.err = fmt.Errorf("connect %d -> %d: %w", u, v, ErrBadND)
		case u == v:
			b.err = fmt.Errorf("connect %d -> %d: %w", u, v, ErrSelfArc)
		case b.g.nodes[u].Kind != KindSubtask || b.g.nodes[v].Kind != KindSubtask:
			b.err = fmt.Errorf("connect %d -> %d: %w", u, v, ErrNotSubtask)
		case b.hasArc(u, v):
			b.err = fmt.Errorf("connect %d -> %d: %w", u, v, ErrDupArc)
		case !finiteCost(size):
			b.err = fmt.Errorf("connect %d -> %d: size %v: %w", u, v, size, ErrNegativeCost)
		}
	}
	if b.err != nil {
		return None
	}
	if b.arcs == nil {
		b.arcs = make(map[uint64]struct{})
	}
	b.arcs[arcKey(u, v)] = struct{}{}

	m := NodeID(len(b.g.nodes))
	b.names = append(b.names, 'm')
	b.names = strconv.AppendInt(b.names, int64(u), 10)
	b.names = append(b.names, '_')
	b.names = strconv.AppendInt(b.names, int64(v), 10)
	b.g.nodes = append(b.g.nodes, Node{ID: m, Kind: KindMessage, Size: size, Pinned: Unpinned})
	b.list = append(b.list, builderArc{u: u, v: v, m: m, nameEnd: len(b.names)})
	return m
}

// hasArc reports whether u -> v was already connected.
func (b *Builder) hasArc(u, v NodeID) bool {
	_, ok := b.arcs[arcKey(u, v)]
	return ok
}

// SetRelease sets the application release time of subtask id. It is only
// meaningful for input subtasks; Finalize rejects it on non-inputs.
func (b *Builder) SetRelease(id NodeID, release float64) {
	if b.err == nil && !b.valid(id) {
		b.err = fmt.Errorf("set release %d: %w", id, ErrBadND)
		return
	}
	if b.err == nil {
		b.g.nodes[id].Release = release
	}
}

// Pin strictly assigns subtask id to the given processor (a strict
// locality constraint). Processor indices are validated by the scheduler
// against the concrete platform; Finalize only rejects negative values
// other than Unpinned and pins on communication subtasks.
func (b *Builder) Pin(id NodeID, proc int) {
	if b.err == nil && !b.valid(id) {
		b.err = fmt.Errorf("pin %d: %w", id, ErrBadND)
		return
	}
	if b.err != nil {
		return
	}
	switch {
	case b.g.nodes[id].Kind != KindSubtask:
		b.err = fmt.Errorf("pin %d: %w", id, ErrNotSubtask)
	case proc < 0:
		b.err = fmt.Errorf("pin %d to processor %d: negative processor", id, proc)
	default:
		b.g.nodes[id].Pinned = proc
	}
}

// SetEndToEnd sets the end-to-end deadline on output subtask id.
func (b *Builder) SetEndToEnd(id NodeID, deadline float64) {
	if b.err == nil && !b.valid(id) {
		b.err = fmt.Errorf("set end-to-end %d: %w", id, ErrBadND)
		return
	}
	if b.err == nil {
		b.g.nodes[id].EndToEnd = deadline
	}
}

func (b *Builder) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(b.g.nodes)
}

// Finalize validates the constructed graph, compacts its adjacency into the
// CSR layout, and returns it. The returned Graph must not be modified.
func (b *Builder) Finalize() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &b.g
	if g.NumSubtasks() == 0 {
		return nil, ErrEmpty
	}
	g.buildCSR(b.list)
	// All message names are cut from one string: one allocation.
	names, start := string(b.names), 0
	for _, a := range b.list {
		g.nodes[a.m].Name = names[start:a.nameEnd]
		start = a.nameEnd
	}
	topo, err := g.computeTopo()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	outputs := 0
	for i := range g.nodes {
		if g.kinds[i] == KindSubtask && g.OutDegree(NodeID(i)) == 0 {
			outputs++
		}
	}
	g.outputs = make([]NodeID, 0, outputs)
	for i := range g.nodes {
		if g.kinds[i] == KindSubtask && g.OutDegree(NodeID(i)) == 0 {
			g.outputs = append(g.outputs, NodeID(i))
		}
	}
	g.execLP = g.computeExecLongestPath()
	for _, n := range g.nodes {
		if n.Kind == KindSubtask && n.Release != 0 && g.InDegree(n.ID) != 0 {
			return nil, fmt.Errorf("subtask %q has a release time but is not an input subtask", n.Name)
		}
		if n.EndToEnd != 0 && g.OutDegree(n.ID) != 0 {
			return nil, fmt.Errorf("subtask %q has an end-to-end deadline but is not an output subtask", n.Name)
		}
	}
	return g, nil
}

// buildCSR compacts the builder's arc list into offset+flat-edge arrays and
// materializes the flat kind/cost views. Each Connect contributed two
// half-edges (u->m and m->v); replaying arcs in insertion order fills every
// node's region left to right, preserving historical adjacency order.
func (g *Graph) buildCSR(arcs []builderArc) {
	n := len(g.nodes)
	g.succOff = make([]int32, n+1)
	g.predOff = make([]int32, n+1)
	for _, a := range arcs {
		g.succOff[a.u+1]++
		g.succOff[a.m+1]++
		g.predOff[a.m+1]++
		g.predOff[a.v+1]++
	}
	for i := 0; i < n; i++ {
		g.succOff[i+1] += g.succOff[i]
		g.predOff[i+1] += g.predOff[i]
	}
	edges := 2 * len(arcs)
	g.succAdj = make([]NodeID, edges)
	g.predAdj = make([]NodeID, edges)
	cursors := make([]int32, 2*n)
	sNext, pNext := cursors[:n], cursors[n:]
	copy(sNext, g.succOff[:n])
	copy(pNext, g.predOff[:n])
	for _, a := range arcs {
		g.succAdj[sNext[a.u]] = a.m
		sNext[a.u]++
		g.succAdj[sNext[a.m]] = a.v
		sNext[a.m]++
		g.predAdj[pNext[a.m]] = a.u
		pNext[a.m]++
		g.predAdj[pNext[a.v]] = a.m
		pNext[a.v]++
	}

	g.kinds = make([]Kind, n)
	g.costs = make([]float64, n)
	for i := range g.nodes {
		g.kinds[i] = g.nodes[i].Kind
		if g.nodes[i].Kind == KindSubtask {
			g.costs[i] = g.nodes[i].Cost
		} else {
			g.costs[i] = g.nodes[i].Size
		}
	}
}

// NumNodes returns the total node count (subtasks + messages).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumSubtasks returns the number of ordinary subtasks.
func (g *Graph) NumSubtasks() int {
	n := 0
	for i := range g.nodes {
		if g.nodes[i].Kind == KindSubtask {
			n++
		}
	}
	return n
}

// NumMessages returns the number of communication subtasks.
func (g *Graph) NumMessages() int { return len(g.nodes) - g.NumSubtasks() }

// Node returns the node with the given ID. The returned value is a copy.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Nodes returns a copy of all nodes in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodesView returns the graph's nodes in ID order without copying. The
// returned slice is a view of the graph's own storage and must not be
// modified; use Nodes for a private copy. Read-heavy per-run loops
// (schedule measurement, assignment, feasibility) iterate this view —
// the Nodes copy was the single largest allocation source of a sweep.
func (g *Graph) NodesView() []Node { return g.nodes }

// Kinds returns the node kinds indexed by NodeID. The returned slice is a
// shared view and must not be modified.
func (g *Graph) Kinds() []Kind { return g.kinds }

// Costs returns the hot cost field per node — Node.Cost for subtasks,
// Node.Size for messages — indexed by NodeID. The returned slice is a view
// kept in sync by SetCost and must not be modified.
func (g *Graph) Costs() []float64 { return g.costs }

// ReleaseOf returns the application release time of id without copying the
// whole Node, for anchor computations in the distribution hot path.
func (g *Graph) ReleaseOf(id NodeID) float64 { return g.nodes[id].Release }

// EndToEndOf returns the end-to-end deadline of id without copying the
// whole Node.
func (g *Graph) EndToEndOf(id NodeID) float64 { return g.nodes[id].EndToEnd }

// PinnedOf returns the strict-locality pin of id (Unpinned when free)
// without copying the whole Node, for the dispatch hot path.
func (g *Graph) PinnedOf(id NodeID) int { return g.nodes[id].Pinned }

// Succ returns the successor IDs of id. The returned slice is a CSR
// sub-slice and must not be modified.
func (g *Graph) Succ(id NodeID) []NodeID {
	return g.succAdj[g.succOff[id]:g.succOff[id+1]]
}

// Pred returns the predecessor IDs of id. The returned slice is a CSR
// sub-slice and must not be modified.
func (g *Graph) Pred(id NodeID) []NodeID {
	return g.predAdj[g.predOff[id]:g.predOff[id+1]]
}

// OutDegree returns the number of successors of id.
func (g *Graph) OutDegree(id NodeID) int {
	return int(g.succOff[id+1] - g.succOff[id])
}

// InDegree returns the number of predecessors of id.
func (g *Graph) InDegree(id NodeID) int {
	return int(g.predOff[id+1] - g.predOff[id])
}

// SuccCSR exposes the raw successor CSR arrays (offsets and flat edges) for
// hot loops that iterate many adjacency lists — the distribution DP and
// reachability search. Neither slice may be modified.
func (g *Graph) SuccCSR() ([]int32, []NodeID) { return g.succOff, g.succAdj }

// PredCSR exposes the raw predecessor CSR arrays. Neither slice may be
// modified.
func (g *Graph) PredCSR() ([]int32, []NodeID) { return g.predOff, g.predAdj }

// Inputs returns the IDs of all input subtasks (ordinary subtasks with no
// predecessors), in ID order.
func (g *Graph) Inputs() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.kinds[i] == KindSubtask && g.InDegree(NodeID(i)) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Outputs returns the IDs of all output subtasks (ordinary subtasks with no
// successors), in ID order. The returned slice is a copy; hot paths use
// OutputsView instead.
func (g *Graph) Outputs() []NodeID {
	return append([]NodeID(nil), g.outputs...)
}

// OutputsView is Outputs without the copy: it returns the graph's cached
// output list directly. The returned slice must not be modified.
func (g *Graph) OutputsView() []NodeID { return g.outputs }

// TopoOrder returns a topological order over all nodes. The returned slice
// must not be modified.
func (g *Graph) TopoOrder() []NodeID { return g.topo }

// computeTopo runs Kahn's algorithm over the CSR arrays, returning ErrCycle
// on failure.
func (g *Graph) computeTopo() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = g.predOff[i+1] - g.predOff[i]
	}
	// order doubles as the BFS queue: nodes are appended when their last
	// predecessor is visited and visited in append order.
	order := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range g.succAdj[g.succOff[u]:g.succOff[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Clone returns a copy of the graph that may be annotated (end-to-end
// deadlines, pins, costs overwritten) without affecting the original.
// Topology is immutable after Finalize, so the CSR arrays, topological
// order, and kind view are shared; only the mutable per-node state (nodes,
// costs) is copied.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:   make([]Node, len(g.nodes)),
		succOff: g.succOff,
		succAdj: g.succAdj,
		predOff: g.predOff,
		predAdj: g.predAdj,
		kinds:   g.kinds,
		costs:   make([]float64, len(g.costs)),
		topo:    g.topo,
		outputs: g.outputs,
		execLP:  g.execLP,
	}
	copy(c.nodes, g.nodes)
	copy(c.costs, g.costs)
	return c
}

// SetPinned overwrites the strict locality constraint of subtask id
// (Unpinned clears it). Intended for annotating clones, e.g. when applying
// a computed task assignment.
func (g *Graph) SetPinned(id NodeID, proc int) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("set pinned %d: %w", id, ErrBadND)
	}
	if g.nodes[id].Kind != KindSubtask {
		return fmt.Errorf("set pinned %d: %w", id, ErrNotSubtask)
	}
	if proc < Unpinned {
		return fmt.Errorf("set pinned %d: invalid processor %d", id, proc)
	}
	g.nodes[id].Pinned = proc
	return nil
}

// SetCost overwrites the worst-case execution time of subtask id (or the
// message size of message id). Intended for annotating clones, e.g. when
// re-distributing a workload whose measured execution times drifted.
func (g *Graph) SetCost(id NodeID, cost float64) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("set cost %d: %w", id, ErrBadND)
	}
	if !finiteCost(cost) {
		return fmt.Errorf("set cost %d: %w", id, ErrNegativeCost)
	}
	if g.nodes[id].Kind == KindSubtask {
		g.nodes[id].Cost = cost
		g.costs[id] = cost
		// Subtask execution times feed the longest-path memo; message
		// sizes do not.
		g.execLP = g.computeExecLongestPath()
		return nil
	}
	g.nodes[id].Size = cost
	g.costs[id] = cost
	return nil
}

// SetEndToEnd overwrites the end-to-end deadline of output subtask id.
// It returns an error if id is not an output subtask.
func (g *Graph) SetEndToEnd(id NodeID, deadline float64) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("set end-to-end %d: %w", id, ErrBadND)
	}
	if g.nodes[id].Kind != KindSubtask || g.OutDegree(id) != 0 {
		return fmt.Errorf("set end-to-end %d: not an output subtask", id)
	}
	g.nodes[id].EndToEnd = deadline
	return nil
}
