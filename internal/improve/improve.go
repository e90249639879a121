// Package improve implements feedback-driven iterative improvement of a
// deadline distribution, in the spirit of Gutiérrez García & González
// Harbour (reference [3] of the paper): "given an initial local deadline
// assignment, find an improved solution in reasonable time — for each
// iteration a new deadline assignment is calculated based on a metric that
// measures by how much schedulability failed."
//
// Each iteration schedules the current assignment, finds the subtask with
// the maximum lateness (the paper's quality measure), and transfers window
// slack to it from the other windowed nodes of its sliced path, keeping
// the path's total span unchanged. The best assignment seen is returned,
// so the procedure never degrades the initial distribution.
package improve

import (
	"errors"
	"fmt"
	"math"

	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

// Config tunes the improvement loop.
type Config struct {
	// Iterations bounds the number of reshape-and-reschedule rounds
	// (default 8).
	Iterations int
	// Transfer is the fraction of each donor window moved to the binding
	// subtask per iteration (default 0.25, clamped to (0, 1)).
	Transfer float64
	// Scheduler configures the evaluation scheduler.
	Scheduler scheduler.Config
}

// Result reports the improvement outcome.
type Result struct {
	// Distribution is the best assignment found (a deep copy; the input
	// is never modified).
	Distribution *core.Result
	// Initial and Best are the maximum task lateness before and after.
	Initial, Best float64
	// Trace records the maximum lateness after every iteration.
	Trace []float64
}

// ErrNilInput mirrors the scheduler's input validation.
var ErrNilInput = errors.New("improver needs a graph, a platform and a distribution result")

// Run iteratively improves res for g on sys. The input res is not
// modified.
func Run(g *taskgraph.Graph, sys *platform.System, res *core.Result, cfg Config) (*Result, error) {
	if g == nil || sys == nil || res == nil {
		return nil, ErrNilInput
	}
	iterations := cfg.Iterations
	if iterations <= 0 {
		iterations = 8
	}
	transfer := cfg.Transfer
	if transfer <= 0 || transfer >= 1 {
		transfer = 0.25
	}

	// Each schedule is consumed before the next run, so one Scratch serves
	// every iteration.
	sc := scheduler.NewScratch()
	cur := cloneResult(res)
	sched, err := sc.Run(g, sys, cur, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Distribution: cloneResult(cur),
		Initial:      sched.MaxLateness(g, cur),
	}
	out.Best = out.Initial

	for it := 0; it < iterations; it++ {
		worst := argmaxLateness(g, cur, sched)
		if worst == taskgraph.None {
			break
		}
		if !reshape(cur, worst, transfer) {
			break // binding subtask has no donors left
		}
		if sched, err = sc.Run(g, sys, cur, cfg.Scheduler); err != nil {
			return nil, err
		}
		l := sched.MaxLateness(g, cur)
		out.Trace = append(out.Trace, l)
		if l < out.Best {
			out.Best = l
			out.Distribution = cloneResult(cur)
		}
	}
	return out, nil
}

// argmaxLateness returns the ordinary subtask with the maximum lateness.
func argmaxLateness(g *taskgraph.Graph, res *core.Result, s *scheduler.Schedule) taskgraph.NodeID {
	worst := taskgraph.None
	worstL := math.Inf(-1)
	for _, n := range g.NodesView() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if l := s.Lateness(res, n.ID); l > worstL {
			worstL, worst = l, n.ID
		}
	}
	return worst
}

// reshape moves window slack toward the binding subtask along its sliced
// path, preserving the path's span: every other windowed node donates
// transfer × its window, and the path's windows are re-laid consecutively
// from the original path start. It reports whether anything moved.
func reshape(res *core.Result, binding taskgraph.NodeID, transfer float64) bool {
	var path []taskgraph.NodeID
	for _, p := range res.Paths {
		for _, id := range p {
			if id == binding {
				path = p
				break
			}
		}
		if path != nil {
			break
		}
	}
	if path == nil || len(path) < 2 {
		return false
	}

	const eps = 1e-9
	donated := 0.0
	for _, id := range path {
		if id == binding || !res.Windowed[id] || res.Relative[id] <= eps {
			continue
		}
		d := transfer * res.Relative[id]
		res.Relative[id] -= d
		donated += d
	}
	if donated <= eps {
		return false
	}
	res.Relative[binding] += donated

	// Re-lay the path's windows consecutively from its original start.
	t := res.Release[path[0]]
	for _, id := range path {
		res.Release[id] = t
		t += res.Relative[id]
		res.Absolute[id] = t
	}
	return true
}

// cloneResult deep-copies r. Search is copied too: every clone descends
// from the initial distribution, whose search work it reports.
func cloneResult(r *core.Result) *core.Result {
	c := &core.Result{
		Release:       append([]float64(nil), r.Release...),
		Relative:      append([]float64(nil), r.Relative...),
		Absolute:      append([]float64(nil), r.Absolute...),
		Windowed:      append([]bool(nil), r.Windowed...),
		EstimatedComm: append([]float64(nil), r.EstimatedComm...),
		Metric:        r.Metric,
		Estimator:     r.Estimator,
		Search:        r.Search,
	}
	c.Paths = make([][]taskgraph.NodeID, len(r.Paths))
	for i, p := range r.Paths {
		c.Paths[i] = append([]taskgraph.NodeID(nil), p...)
	}
	return c
}

// String summarizes the improvement for logs.
func (r *Result) String() string {
	return fmt.Sprintf("max lateness %.2f -> %.2f in %d iterations", r.Initial, r.Best, len(r.Trace))
}
