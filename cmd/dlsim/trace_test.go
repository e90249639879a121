package main

import (
	"encoding/json"
	"strings"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

func tracePipeline(t *testing.T, preemptive bool) (*taskgraph.Graph, *core.Result, *scheduler.Schedule) {
	t.Helper()
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 20)
	d := b.AddSubtask("d", 10)
	b.Connect(a, c, 5)
	b.Connect(a, d, 5)
	b.SetEndToEnd(c, 120)
	b.SetEndToEnd(d, 120)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.Run(g, sys, res, scheduler.Config{RespectRelease: true, Preemptive: preemptive})
	if err != nil {
		t.Fatal(err)
	}
	return g, res, sched
}

func decodeTrace(t *testing.T, out string) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal([]byte(out), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	return events
}

func TestTraceValidJSON(t *testing.T) {
	g, res, sched := tracePipeline(t, false)
	var sb strings.Builder
	if err := obs.WriteChrome(&sb, scheduleEvents(g, res, sched)); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, sb.String())
	var slices, markers, metas int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			slices++
		case "I":
			markers++
		case "M":
			metas++
		}
	}
	// 3 subtasks + 1 cross-processor message (at least) as slices.
	if slices < 3 {
		t.Errorf("only %d slices", slices)
	}
	if markers != 3 {
		t.Errorf("deadline markers = %d, want 3", markers)
	}
	if metas < 3 {
		t.Errorf("meta events = %d", metas)
	}
}

func TestTraceSubtaskSlicesMatchSchedule(t *testing.T) {
	g, res, sched := tracePipeline(t, false)
	var sb strings.Builder
	if err := obs.WriteChrome(&sb, scheduleEvents(g, res, sched)); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, sb.String())
	for _, e := range events {
		if e["ph"] != "X" || e["name"] != "c" {
			continue
		}
		ts := e["ts"].(float64)
		dur := e["dur"].(float64)
		var cID taskgraph.NodeID
		for _, n := range g.Nodes() {
			if n.Name == "c" {
				cID = n.ID
			}
		}
		if ts != sched.Start[cID] || dur != sched.Finish[cID]-sched.Start[cID] {
			t.Fatalf("slice [%v, +%v] does not match schedule [%v, %v]",
				ts, dur, sched.Start[cID], sched.Finish[cID])
		}
		return
	}
	t.Fatal("subtask c not in trace")
}

func TestTracePreemptiveUsesSegments(t *testing.T) {
	g, res, sched := tracePipeline(t, true)
	if len(sched.Segments) == 0 {
		t.Fatal("preemptive run produced no segments")
	}
	var sb strings.Builder
	if err := obs.WriteChrome(&sb, scheduleEvents(g, res, sched)); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, sb.String())
	slices := 0
	for _, e := range events {
		if e["ph"] == "X" && e["pid"].(float64) == 1 {
			slices++
		}
	}
	if slices != len(sched.Segments) {
		t.Errorf("trace has %d processor slices, schedule has %d segments", slices, len(sched.Segments))
	}
}
