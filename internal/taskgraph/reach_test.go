package taskgraph

// From is the predicate-skip form of Reach.FromBits, kept as its naive
// shadow: it walks successor lists node by node from start (inclusive),
// not following arcs into nodes excluded by skip, and returns the reached
// nodes in topological order. Start itself is never skipped.
func (r *Reach) From(start NodeID, skip func(NodeID) bool) []NodeID {
	reached := make([]bool, r.g.NumNodes())
	reached[start] = true
	stack := []NodeID{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range r.succAdj[r.succOff[u]:r.succOff[u+1]] {
			if reached[v] || skip(v) {
				continue
			}
			reached[v] = true
			stack = append(stack, v)
		}
	}
	var out []NodeID
	for _, id := range r.g.TopoOrder()[r.index[start]:] {
		if reached[id] {
			out = append(out, id)
		}
	}
	return out
}
