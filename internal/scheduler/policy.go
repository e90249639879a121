package scheduler

import (
	"fmt"
	"math"

	"deadlinedist/internal/core"
	"deadlinedist/internal/taskgraph"
)

// Policy selects the priority rule used to pick among schedulable subtasks
// at each list-scheduling step. The paper's evaluation uses EDF; Section 8
// calls for exploring AST under other scheduling policies, which these
// implement.
type Policy int

const (
	// PolicyEDF dispatches the earliest absolute deadline first (the
	// paper's deadline-driven list scheduler; zero value).
	PolicyEDF Policy = iota
	// PolicyLLF dispatches the minimum-laxity subtask first (absolute
	// deadline minus execution time).
	PolicyLLF
	// PolicyFIFO dispatches in graph order (the order subtasks were
	// declared), ignoring deadlines — a deadline-oblivious baseline.
	PolicyFIFO
	// PolicyHLF dispatches the subtask with the longest remaining
	// downstream execution first (highest level first, the classic
	// critical-path list-scheduling rule).
	PolicyHLF
)

// String returns the policy mnemonic.
func (p Policy) String() string {
	switch p {
	case PolicyEDF:
		return "EDF"
	case PolicyLLF:
		return "LLF"
	case PolicyFIFO:
		return "FIFO"
	case PolicyHLF:
		return "HLF"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists all dispatch policies.
func Policies() []Policy { return []Policy{PolicyEDF, PolicyLLF, PolicyFIFO, PolicyHLF} }

// priorityKeysInto fills keys (sized to the graph) with the per-node
// dispatch key under the policy (smaller = dispatched first; ties broken by
// NodeID) and reports whether any key's bits changed from what keys held.
// The buffer form lets batch drivers reuse one allocation across runs, and
// the report lets a run keep the previous run's dispatch order.
func priorityKeysInto(keys []float64, g *taskgraph.Graph, res *core.Result, p Policy) (changed bool, err error) {
	set := func(i int, v float64) {
		if math.Float64bits(keys[i]) != math.Float64bits(v) {
			keys[i] = v
			changed = true
		}
	}
	switch p {
	case PolicyEDF:
		for i, v := range res.Absolute {
			set(i, v)
		}
	case PolicyLLF:
		for i := range keys {
			id := taskgraph.NodeID(i)
			set(i, res.Absolute[id]-g.Node(id).Cost)
		}
	case PolicyFIFO:
		for i := range keys {
			set(i, float64(i))
		}
	case PolicyHLF:
		from := g.LongestPathFrom(taskgraph.ExecCost)
		for i := range keys {
			set(i, -from[i])
		}
	default:
		return false, fmt.Errorf("unknown dispatch policy %d", int(p))
	}
	return changed, nil
}
