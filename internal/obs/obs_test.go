package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/metrics"
)

func TestNilTracerAndProgressAreNoOps(t *testing.T) {
	var tr *Tracer
	if !tr.Now().IsZero() {
		t.Error("nil tracer Now() read the clock")
	}
	tr.UnitSpan("t", 0, 1, 1, time.Time{}, OutcomeOK, "", 0, "")
	tr.StageSpan("t", 0, 1, "assign", "PURE/CCNE", 4, 1, time.Time{}, 0, "miss")
	tr.Mark("t", 0, 2, OutcomeRetry, "panic")
	tr.UnitReplayed("t", 3)
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close() = %v", err)
	}

	var p *Progress
	p.StartTable("t", 10)
	p.UnitDone("t")
	p.UnitFailed("t")
	if snap := p.Snapshot(); snap.UnitsTotal != 0 || len(snap.Tables) != 0 {
		t.Errorf("nil progress snapshot not empty: %+v", snap)
	}

	var rep *Reporter
	rep.Stop() // must not panic
}

func TestTracerEventLogRoundTrip(t *testing.T) {
	var buf strings.Builder
	tr := New(Options{Events: &buf})
	u0 := tr.Now()
	tr.StageSpan("Figure 2", 7, 1, "fingerprint", "PURE/CCNE", 4, 3, tr.Now(), time.Microsecond, "hit")
	tr.Mark("Figure 2", 7, 2, OutcomeFaultInjected, "panic")
	tr.UnitSpan("Figure 2", 7, 2, 3, u0, OutcomePanic, "PURE/CCNE", 8, "panic: boom")
	tr.UnitReplayed("Figure 2", 9)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("event log has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	evs := make([]Event, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &evs[i]); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, l)
		}
	}
	if evs[0].Kind != "stage" || evs[0].Stage != "fingerprint" || evs[0].Cache != "hit" ||
		evs[0].Table != "Figure 2" || evs[0].Graph != 7 || evs[0].Worker != 3 {
		t.Errorf("stage event wrong: %+v", evs[0])
	}
	if evs[1].Kind != "mark" || evs[1].Outcome != OutcomeFaultInjected || evs[1].Detail != "panic" {
		t.Errorf("mark event wrong: %+v", evs[1])
	}
	if evs[2].Kind != "unit" || evs[2].Outcome != OutcomePanic || evs[2].Attempt != 2 ||
		evs[2].Label != "PURE/CCNE" || evs[2].Size != 8 || evs[2].Dur <= 0 {
		t.Errorf("unit event wrong: %+v", evs[2])
	}
	if evs[3].Kind != "unit" || evs[3].Outcome != OutcomeJournalReplayed || evs[3].Graph != 9 {
		t.Errorf("replay event wrong: %+v", evs[3])
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf strings.Builder
	tr := New(Options{Chrome: &buf})
	u0 := tr.Now()
	tr.StageSpan("T", 0, 1, "assign", "ADAPT", 4, 2, tr.Now(), time.Microsecond, "miss")
	tr.StageSpan("T", 0, 1, "schedule", "ADAPT", 4, 2, tr.Now(), time.Microsecond, "")
	tr.UnitSpan("T", 0, 1, 2, u0, OutcomeOK, "", 0, "")
	tr.Mark("T", 1, 2, OutcomeRetry, "timeout")
	tr.UnitReplayed("T", 5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var evs []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &evs); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v\n%s", err, buf.String())
	}
	var phases []string
	names := map[string]bool{}
	for _, ev := range evs {
		phases = append(phases, ev["ph"].(string))
		names[ev["name"].(string)] = true
	}
	// Metadata rows name the process and each worker row; spans are "X",
	// marks and replays instants "I".
	for _, want := range []string{"process_name", "thread_name", "assign", "schedule", "unit g0"} {
		if !names[want] {
			t.Errorf("chrome trace missing %q row (have %v)", want, names)
		}
	}
	has := func(ph string) bool {
		for _, p := range phases {
			if p == ph {
				return true
			}
		}
		return false
	}
	if !has("X") || !has("I") || !has("M") {
		t.Errorf("chrome trace phases = %v, want X, I and M present", phases)
	}
}

func TestChromeTraceEmptyIsValid(t *testing.T) {
	var buf strings.Builder
	tr := New(Options{Chrome: &buf})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal([]byte(buf.String()), &evs); err != nil || len(evs) != 0 {
		t.Errorf("empty trace = %q, want a valid empty array", buf.String())
	}
}

func TestProgressAccounting(t *testing.T) {
	p := NewProgress()
	p.StartTable("A", 4)
	p.StartTable("B", 2)
	p.StartTable("A", 4) // re-registering extends the same row
	p.UnitDone("A")
	p.UnitDone("A")
	p.UnitFailed("B")
	snap := p.Snapshot()
	if snap.UnitsTotal != 10 || snap.UnitsDone != 2 || snap.UnitsFailed != 1 {
		t.Errorf("totals = %d/%d/%d, want done 2, failed 1, total 10",
			snap.UnitsDone, snap.UnitsFailed, snap.UnitsTotal)
	}
	if len(snap.Tables) != 2 || snap.Tables[0].Table != "A" || snap.Tables[0].Total != 8 ||
		snap.Tables[1].Table != "B" || snap.Tables[1].Failed != 1 {
		t.Errorf("tables = %+v", snap.Tables)
	}
	if snap.ElapsedSeconds < 0 {
		t.Errorf("elapsed = %v", snap.ElapsedSeconds)
	}
}

func TestETASeconds(t *testing.T) {
	var msnap metrics.Snapshot
	ps := ProgressSnapshot{UnitsDone: 0, UnitsTotal: 10}
	if eta := ps.ETASeconds(msnap); eta != 0 {
		t.Errorf("ETA with zero done = %v, want 0 (nothing to extrapolate)", eta)
	}

	// 5 of 10 units done in 10 stage-seconds of serial work on 2 workers:
	// 2s per unit, 5 left, so 5s of wall time remain.
	rec := metrics.New()
	for i := 0; i < 10; i++ {
		rec.Observe(metrics.StageAssign, time.Second)
	}
	rec.PoolJobStart()
	rec.PoolJobStart() // peak occupancy 2
	msnap = rec.Snapshot()
	ps = ProgressSnapshot{UnitsDone: 5, UnitsTotal: 10}
	if eta := ps.ETASeconds(msnap); eta < 4.9 || eta > 5.1 {
		t.Errorf("ETA = %v, want ~5s", eta)
	}

	ps = ProgressSnapshot{UnitsDone: 10, UnitsTotal: 10}
	if eta := ps.ETASeconds(msnap); eta != 0 {
		t.Errorf("ETA when complete = %v, want 0", eta)
	}
}

func TestReporterLine(t *testing.T) {
	rec := metrics.New()
	rec.UnitRetry()
	p := NewProgress()
	p.StartTable("A", 4)
	p.UnitDone("A")
	p.UnitFailed("A")
	line := Line(rec, p)
	for _, want := range []string{"progress", "1/4 units", "(25.0%)", "0/1 tables done", "1 retries", "1 failed"} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q: %s", want, line)
		}
	}
	// Nil sources still render a (zeroed) line.
	if l := Line(nil, nil); !strings.Contains(l, "0/0 units") {
		t.Errorf("nil-source line = %q", l)
	}
}

func TestReporterStopPrintsFinalLine(t *testing.T) {
	var buf strings.Builder
	p := NewProgress()
	p.StartTable("A", 1)
	p.UnitDone("A")
	rep := StartReporter(&buf, time.Hour, p, nil) // interval never fires
	rep.Stop()
	rep.Stop() // idempotent
	if got := buf.String(); strings.Count(got, "progress") != 1 || !strings.Contains(got, "1/1 units") {
		t.Errorf("final line = %q, want exactly one progress line", got)
	}
	if StartReporter(&buf, 0, p, nil) != nil {
		t.Error("zero interval should disable the reporter")
	}
}
