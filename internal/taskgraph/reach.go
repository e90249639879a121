package taskgraph

import "math/bits"

// Reach answers repeated reachability queries over one graph without
// allocating per query. It is the pruning primitive of the deadline
// distributor's critical-path search: each per-start DP only needs the
// nodes actually reachable from that start through still-unassigned nodes,
// which is typically a small fraction of the graph once slicing has begun.
//
// FromBits takes the skip set as a word-packed bitset and expands whole
// successor sets with word OR/AND-NOT sweeps over masks precomputed from
// the CSR layout. (The tests keep a predicate-skip form, From, that walks
// successor lists node by node, as its naive shadow.)
//
// A Reach is not safe for concurrent use; create one per goroutine.
type Reach struct {
	g       *Graph
	succOff []int32  // CSR successor offsets of g, bound by Reset
	succAdj []NodeID // CSR flat successor edges of g
	index   []int    // topological position per node
	buf     []NodeID

	// Bitset backend (FromBits), built lazily on first use and keyed on
	// the bound CSR arrays so clones sharing topology reuse the masks.
	// succMask holds one words-long row per node: bit v of row u is set
	// iff u -> v is an arc.
	words     int
	succMask  []uint64
	reached   []uint64
	maskNodes int
	maskEdges int
	maskAdj   *NodeID
}

// NewReach returns a reusable reachability scratch for g.
func NewReach(g *Graph) *Reach {
	r := &Reach{}
	r.Reset(g)
	return r
}

// Reset rebinds the scratch to g, reusing its buffers.
func (r *Reach) Reset(g *Graph) {
	n := g.NumNodes()
	r.g = g
	r.succOff, r.succAdj = g.SuccCSR()
	if cap(r.index) < n {
		r.index = make([]int, n)
	} else {
		r.index = r.index[:n]
	}
	for i, id := range g.TopoOrder() {
		r.index[id] = i
	}
}

// TopoIndex returns the topological position of id (the index of id in
// TopoOrder).
func (r *Reach) TopoIndex(id NodeID) int { return r.index[id] }

// Words returns the number of 64-bit words a skip bitset for the bound
// graph must have: bit id of word id/64 stands for node id.
func (r *Reach) Words() int { return (r.g.NumNodes() + 63) / 64 }

// ReachedBits returns the reached set of the last FromBits call as a
// bitset (same packing as the skip argument). Valid until the next
// FromBits call; callers snapshot it if they need it longer.
func (r *Reach) ReachedBits() []uint64 { return r.reached }

// ensureMasks builds the per-node successor bit rows for the bound CSR
// arrays. Clones share topology, so the memo key is the CSR identity
// (edge slice base pointer + sizes), making rebinds across clones free.
func (r *Reach) ensureMasks() {
	n := r.g.NumNodes()
	var adj *NodeID
	if len(r.succAdj) > 0 {
		adj = &r.succAdj[0]
	}
	if r.maskNodes == n && r.maskEdges == len(r.succAdj) && r.maskAdj == adj && adj != nil {
		return
	}
	w := (n + 63) / 64
	r.words = w
	if need := n * w; cap(r.succMask) < need {
		r.succMask = make([]uint64, need)
	} else {
		r.succMask = r.succMask[:need]
		for i := range r.succMask {
			r.succMask[i] = 0
		}
	}
	if cap(r.reached) < w {
		r.reached = make([]uint64, w)
	} else {
		r.reached = r.reached[:w]
	}
	for u := 0; u < n; u++ {
		row := r.succMask[u*w : u*w+w]
		for _, v := range r.succAdj[r.succOff[u]:r.succOff[u+1]] {
			row[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	r.maskNodes = n
	r.maskEdges = len(r.succAdj)
	r.maskAdj = adj
}

// FromBits returns every node reachable from start (inclusive) through
// nodes not excluded by skip, in topological order. The skip set is a
// word-packed bitset (bit id of skip[id/64] set means node id is
// excluded); len(skip) must be at least Words(). The successor set of each
// visited node is merged with two word operations per word (OR the mask
// row, AND-NOT skip and the already reached set) instead of a per-arc
// walk, and the result is collected from a scan of the topological suffix
// starting at start: every reached node is a descendant of start, so no
// sort is needed. Start itself is never skipped. The slice is reused by
// the next call and must not be retained.
func (r *Reach) FromBits(start NodeID, skip []uint64) []NodeID {
	r.ensureMasks()
	w := r.words
	reached := r.reached
	for i := range reached {
		reached[i] = 0
	}
	reached[start>>6] = 1 << (uint(start) & 63)
	// pending counts reached-but-not-yet-emitted nodes; the topo-suffix
	// scan below visits descendants of start in topological order, so by
	// the time a node is emitted all its reached predecessors have already
	// expanded into it and pending hitting zero means the frontier is done.
	pending := 1
	r.buf = r.buf[:0]
	topo := r.g.TopoOrder()
	succOff := r.succOff
	mask := r.succMask
	for i := r.index[start]; i < len(topo) && pending > 0; i++ {
		u := topo[i]
		if reached[u>>6]&(1<<(uint(u)&63)) == 0 {
			continue
		}
		r.buf = append(r.buf, u)
		pending--
		if succOff[u] == succOff[u+1] {
			continue
		}
		row := mask[int(u)*w : int(u)*w+w]
		for k := 0; k < w; k++ {
			if add := row[k] &^ skip[k] &^ reached[k]; add != 0 {
				reached[k] |= add
				pending += bits.OnesCount64(add)
			}
		}
	}
	return r.buf
}
