package main

import (
	"fmt"
	"sort"

	"deadlinedist/internal/core"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

// Trace rows: processors and communication are two processes of the
// Chrome trace, one thread row per processor and one for the links/bus.
const (
	pidProcessors = 1
	pidComm       = 2
)

// metaEvent names a process or thread row in the trace viewer.
func metaEvent(pid, tid int, kind, name string) obs.ChromeEvent {
	return obs.ChromeEvent{Name: kind, Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// scheduleEvents maps a schedule to Chrome trace events (the format of
// chrome://tracing and https://ui.perfetto.dev, written by
// obs.WriteChrome) — a practical way to inspect why a particular subtask
// went late. Subtasks (or, for a preemptive schedule, their segments)
// appear on their processor's row; non-degenerate message transfers appear
// on the communication row; each subtask's absolute deadline is an instant
// marker carrying its lateness.
func scheduleEvents(g *taskgraph.Graph, res *core.Result, s *scheduler.Schedule) []obs.ChromeEvent {
	events := []obs.ChromeEvent{
		metaEvent(pidProcessors, 0, "process_name", "processors"),
		metaEvent(pidComm, 0, "process_name", "communication"),
	}

	procs := map[int]bool{}
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask && s.Proc[n.ID] >= 0 {
			procs[s.Proc[n.ID]] = true
		}
	}
	ordered := make([]int, 0, len(procs))
	for p := range procs {
		ordered = append(ordered, p)
	}
	sort.Ints(ordered)
	for _, p := range ordered {
		events = append(events, metaEvent(pidProcessors, p, "thread_name", fmt.Sprintf("P%d", p)))
	}
	events = append(events, metaEvent(pidComm, 0, "thread_name", "links/bus"))

	slice := func(name string, pid, tid int, start, end float64, args map[string]any) {
		events = append(events, obs.ChromeEvent{
			Name: name, Phase: "X", TS: start, Dur: end - start,
			PID: pid, TID: tid, Args: args,
		})
	}
	if len(s.Segments) > 0 {
		for _, seg := range s.Segments {
			n := g.Node(seg.Node)
			slice(n.Name, pidProcessors, seg.Proc, seg.Start, seg.End, map[string]any{
				"cost": n.Cost, "deadline": res.Absolute[seg.Node],
			})
		}
	} else {
		for _, n := range g.Nodes() {
			if n.Kind != taskgraph.KindSubtask || s.Proc[n.ID] < 0 {
				continue
			}
			slice(n.Name, pidProcessors, s.Proc[n.ID], s.Start[n.ID], s.Finish[n.ID], map[string]any{
				"cost": n.Cost, "deadline": res.Absolute[n.ID],
				"lateness": s.Finish[n.ID] - res.Absolute[n.ID],
			})
		}
	}
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage || s.Finish[n.ID] <= s.Start[n.ID] {
			continue
		}
		slice(n.Name, pidComm, 0, s.Start[n.ID], s.Finish[n.ID], map[string]any{"items": n.Size})
	}

	// Deadline markers with lateness, on the owning processor's row.
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask || s.Proc[n.ID] < 0 {
			continue
		}
		events = append(events, obs.ChromeEvent{
			Name: "D(" + n.Name + ")", Phase: "I", TS: res.Absolute[n.ID],
			PID: pidProcessors, TID: s.Proc[n.ID], Scope: "t",
			Args: map[string]any{"lateness": s.Finish[n.ID] - res.Absolute[n.ID]},
		})
	}
	return events
}
