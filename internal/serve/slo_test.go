package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sloTestTracker builds a tracker with a hand-driven clock.
func sloTestTracker(cfg SLOConfig) (*sloTracker, *time.Time) {
	tr := newSLOTracker(cfg, 10*time.Second)
	now := time.Unix(1_700_000_000, 0)
	tr.now = func() time.Time { return now }
	return tr, &now
}

// TestBurnMath: hand-checked burn rates. With a 0.99 target the error
// budget is 0.01, so 1 bad in 10 burns at (0.1)/(0.01) = 10x, and 1 bad
// in 100 burns at exactly 1x.
func TestBurnMath(t *testing.T) {
	near := func(got, want float64) bool {
		return got > want*(1-1e-9) && got < want*(1+1e-9)
	}
	if got := burn(9, 1, 0.99); !near(got, 10) {
		t.Errorf("burn(9,1,.99) = %v, want 10", got)
	}
	if got := burn(99, 1, 0.99); !near(got, 1) {
		t.Errorf("burn(99,1,.99) = %v, want 1", got)
	}
	if got := burn(0, 0, 0.99); got != 0 {
		t.Errorf("burn of no traffic = %v, want 0", got)
	}
	if got := burn(0, 5, 0.999); !near(got, 1000) {
		t.Errorf("burn(0,5,.999) = %v, want 1000 (all bad over a 0.001 budget)", got)
	}
}

// TestBurnRingRotation: counts age out of the window as the clock
// advances, with 1/ringSlots granularity.
func TestBurnRingRotation(t *testing.T) {
	tr, now := sloTestTracker(SLOConfig{FastWindow: time.Minute, SlowWindow: time.Hour})
	for i := 0; i < 8; i++ {
		tr.observe(LatencyStandard, time.Millisecond, 200)
	}
	tr.observe(LatencyStandard, time.Millisecond, 500)
	c := &tr.classes[LatencyStandard]
	if g, b := c.fast.sums(*now); g != 8 || b != 1 {
		t.Fatalf("fast window = %d good %d bad, want 8/1", g, b)
	}
	// Advance past the fast window: its counts evaporate, the slow
	// window still remembers.
	*now = now.Add(2 * time.Minute)
	if g, b := c.fast.sums(*now); g != 0 || b != 0 {
		t.Errorf("fast window after expiry = %d/%d, want 0/0", g, b)
	}
	if g, b := c.slow.sums(*now); g != 8 || b != 1 {
		t.Errorf("slow window after 2m = %d/%d, want 8/1", g, b)
	}
	// Totals never age.
	if c.served != 9 || c.bad != 1 {
		t.Errorf("totals %d/%d, want 9/1", c.served, c.bad)
	}
}

// TestSLOBadDefinition: server faults and objective misses are bad; 400s
// and 429s must never reach observe (the handler filters them), and fast
// 200s are good.
func TestSLOBadDefinition(t *testing.T) {
	tr, now := sloTestTracker(SLOConfig{
		Standard: SLOClassConfig{Objective: 100 * time.Millisecond, Target: 0.9},
	})
	tr.observe(LatencyStandard, 50*time.Millisecond, 200)  // good
	tr.observe(LatencyStandard, 200*time.Millisecond, 200) // objective miss
	tr.observe(LatencyStandard, time.Millisecond, 500)     // server fault
	tr.observe(LatencyStandard, time.Millisecond, 503)     // server fault
	if g, b := tr.classes[LatencyStandard].fast.sums(*now); g != 1 || b != 3 {
		t.Errorf("good/bad = %d/%d, want 1/3", g, b)
	}
}

// TestAlertLadderSteps: the alert state walks one rung per evaluation in
// both directions, so ok → warning → page (and back) is always
// observable, and each transition is counted once.
func TestAlertLadderSteps(t *testing.T) {
	tr, now := sloTestTracker(SLOConfig{
		FastWindow: time.Minute, SlowWindow: time.Hour,
		WarnBurn: 2, PageBurn: 10, MinSamples: 5,
	})
	var hops []string
	tr.onAlert = func(lc LatencyClass, from, to int32) {
		hops = append(hops, lc.String()+":"+alertName(from)+"->"+alertName(to))
	}
	// 100% bad interactive traffic: burn 100x with a 0.99 target.
	for i := 0; i < 10; i++ {
		tr.observe(LatencyInteractive, time.Second, 500)
	}
	st := func() int32 { return tr.classes[LatencyInteractive].state }
	tr.evaluate()
	if st() != alertWarning {
		t.Fatalf("state after 1st evaluate = %s, want warning", alertName(st()))
	}
	tr.evaluate()
	if st() != alertPage {
		t.Fatalf("state after 2nd evaluate = %s, want page", alertName(st()))
	}
	tr.evaluate() // steady: no transition
	// Burn clears: the window drains and the ladder walks back down.
	*now = now.Add(2 * time.Minute)
	tr.evaluate()
	tr.evaluate()
	if st() != alertOK {
		t.Fatalf("state after calm = %s, want ok", alertName(st()))
	}
	want := []string{
		"interactive:ok->warning", "interactive:warning->page",
		"interactive:page->warning", "interactive:warning->ok",
	}
	if len(hops) != len(want) {
		t.Fatalf("transitions %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Errorf("transition %d = %q, want %q", i, hops[i], want[i])
		}
	}
	tc := tr.classes[LatencyInteractive].transitions
	if tc[alertOK] != 1 || tc[alertWarning] != 2 || tc[alertPage] != 1 {
		t.Errorf("transition counters %v, want [1 2 1]", tc)
	}
}

// TestMinSamplesGuard: sparse traffic neither alerts nor pressures the
// ladder, no matter how bad its burn rate looks.
func TestMinSamplesGuard(t *testing.T) {
	tr, _ := sloTestTracker(SLOConfig{MinSamples: 10})
	for i := 0; i < 9; i++ {
		tr.observe(LatencyInteractive, time.Second, 500) // 100% bad, but only 9 samples
	}
	if p := tr.evaluate(); p != 0 {
		t.Errorf("pressure below MinSamples = %v, want 0", p)
	}
	if st := tr.classes[LatencyInteractive].state; st != alertOK {
		t.Errorf("state below MinSamples = %s, want ok", alertName(st))
	}
	// The 10th sample crosses the guard.
	tr.observe(LatencyInteractive, time.Second, 500)
	if p := tr.evaluate(); p != 1 {
		t.Errorf("pressure at MinSamples = %v, want 1 (capped)", p)
	}
}

// TestPageNeedsBothWindows: a fast-window spike alone pages nothing — the
// slow window must corroborate. With a slow window full of good traffic,
// the same spike stops at warning... and here not even that, because the
// slow burn is diluted below WarnBurn too.
func TestPageNeedsBothWindows(t *testing.T) {
	tr, now := sloTestTracker(SLOConfig{
		FastWindow: time.Minute, SlowWindow: time.Hour, MinSamples: 5,
	})
	// An hour of good traffic dilutes the slow window.
	for i := 0; i < 5000; i++ {
		tr.observe(LatencyStandard, time.Millisecond, 200)
	}
	*now = now.Add(2 * time.Minute) // clear the fast window only
	for i := 0; i < 10; i++ {
		tr.observe(LatencyStandard, time.Millisecond, 500) // fast spike: burn 100x
	}
	tr.evaluate()
	tr.evaluate()
	if st := tr.classes[LatencyStandard].state; st != alertOK {
		t.Errorf("state on uncorroborated spike = %s, want ok", alertName(st))
	}
}

// TestParseSLO covers the -slo flag grammar.
func TestParseSLO(t *testing.T) {
	cfg, err := ParseSLO("interactive=250ms/0.999/500ms,standard=3s,fast=1m,slow=30m,warn=3,page=14,min=25,default=batch")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Interactive.Objective != 250*time.Millisecond || cfg.Interactive.Target != 0.999 ||
		cfg.Interactive.MaxBudget != 500*time.Millisecond {
		t.Errorf("interactive = %+v", cfg.Interactive)
	}
	if cfg.Standard.Objective != 3*time.Second || cfg.Standard.Target != 0 {
		t.Errorf("standard = %+v", cfg.Standard)
	}
	if cfg.FastWindow != time.Minute || cfg.SlowWindow != 30*time.Minute ||
		cfg.WarnBurn != 3 || cfg.PageBurn != 14 || cfg.MinSamples != 25 ||
		cfg.DefaultClass != LatencyBatch {
		t.Errorf("knobs = %+v", cfg)
	}
	for _, bad := range []string{
		"nonsense", "tier=1s", "interactive=", "interactive=1s/2",
		"interactive=1s/0.9/0.1/x", "fast=-1s", "warn=0", "min=0", "default=gold",
		"warn=NaN", "page=Inf", "page=+Inf", "standard=2s/NaN", "interactive=1s/nan/1s",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

// FuzzParseSLO checks the -slo parser's contract on arbitrary specs:
// either an error, or a config whose every numeric field is finite and in
// its documented range (zero meaning "use the default").
func FuzzParseSLO(f *testing.F) {
	for _, seed := range []string{
		"", "interactive=250ms/0.999/500ms,standard=3s,fast=1m,slow=30m,warn=3,page=14,min=25,default=batch",
		"warn=NaN", "page=Inf", "standard=2s/NaN", "batch=1h/1e-9/1ns", "min=-1", "fast=1e3h", " , ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSLO(spec)
		if err != nil {
			return
		}
		for _, cc := range []SLOClassConfig{cfg.Interactive, cfg.Standard, cfg.Batch} {
			if cc.Objective < 0 || cc.MaxBudget < 0 {
				t.Fatalf("ParseSLO(%q): negative duration in %+v", spec, cc)
			}
			if cc.Target != 0 && !(cc.Target > 0 && cc.Target < 1) {
				t.Fatalf("ParseSLO(%q): target %v outside (0,1)", spec, cc.Target)
			}
		}
		if cfg.FastWindow < 0 || cfg.SlowWindow < 0 || cfg.MinSamples < 0 {
			t.Fatalf("ParseSLO(%q): negative knob in %+v", spec, cfg)
		}
		for _, b := range []float64{cfg.WarnBurn, cfg.PageBurn} {
			if b != 0 && !(b > 0 && b <= math.MaxFloat64) {
				t.Fatalf("ParseSLO(%q): burn threshold %v not finite and positive", spec, b)
			}
		}
		if cfg.DefaultClass < 0 || cfg.DefaultClass >= numLatencyClasses {
			t.Fatalf("ParseSLO(%q): default class %d", spec, cfg.DefaultClass)
		}
	})
}

// TestSLOConfigDefaults: the zero config resolves to the documented
// contracts and a class clamp never exceeds the server maximum.
func TestSLOConfigDefaults(t *testing.T) {
	cfg := SLOConfig{}.withDefaults(10 * time.Second)
	if cfg.Interactive.Objective != 500*time.Millisecond || cfg.Interactive.Target != 0.99 {
		t.Errorf("interactive default = %+v", cfg.Interactive)
	}
	if cfg.Batch.Objective != 30*time.Second || cfg.Batch.MaxBudget != 10*time.Second {
		t.Errorf("batch default = %+v (clamp must not exceed server max)", cfg.Batch)
	}
	if cfg.FastWindow != 5*time.Minute || cfg.SlowWindow != time.Hour {
		t.Errorf("windows = %v/%v", cfg.FastWindow, cfg.SlowWindow)
	}
	if cfg.WarnBurn != 2 || cfg.PageBurn != 10 || cfg.MinSamples != 10 {
		t.Errorf("burn knobs = %+v", cfg)
	}
}

// TestSLOSnapshotGolden pins the /slo wire format: a deterministic
// traffic pattern against a fixed clock must render exactly the
// committed fixture. Regenerate with -update.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestSLOSnapshotGolden(t *testing.T) {
	tr, _ := sloTestTracker(SLOConfig{
		FastWindow: 5 * time.Minute, SlowWindow: time.Hour,
	})
	for i := 0; i < 18; i++ {
		tr.observe(LatencyInteractive, 40*time.Millisecond, 200)
	}
	tr.observe(LatencyInteractive, 900*time.Millisecond, 200) // objective miss
	tr.observe(LatencyInteractive, 10*time.Millisecond, 500)  // server fault
	for i := 0; i < 5; i++ {
		tr.observe(LatencyBatch, 2*time.Second, 200)
	}
	tr.evaluate() // one tick: interactive steps ok -> warning

	got, err := json.MarshalIndent(struct {
		Classes []any `json:"classes"`
	}{anySlice(tr.snapshot())}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "slo_golden.json")
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("snapshot drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func anySlice[T any](in []T) []any {
	out := make([]any, len(in))
	for i := range in {
		out[i] = in[i]
	}
	return out
}

// TestOverloadBurnStates is the acceptance scenario: a simulated overload
// drives the interactive class through ok → warning → page, observable on
// /slo, while concurrent batch traffic stays ok — and the burning budget
// alone (no queue pressure at all) escalates the degrade ladder.
func TestOverloadBurnStates(t *testing.T) {
	s := startServer(t, Config{
		PressureInterval: 20 * time.Millisecond,
		SLO: SLOConfig{
			// Impossible interactive objective: every real 200 is an
			// objective miss, which is exactly what a latency incident
			// looks like from the outside.
			Interactive: SLOClassConfig{Objective: time.Nanosecond, Target: 0.99},
			FastWindow:  2 * time.Second,
			SlowWindow:  5 * time.Second,
			MinSamples:  5,
		},
	})
	for i := 0; i < 8; i++ {
		resp, b := post(t, s, reqBody(i, ``), map[string]string{"X-Latency-Class": "interactive"})
		if resp.StatusCode != 200 {
			t.Fatalf("interactive %d: %d %s", i, resp.StatusCode, b)
		}
		resp, b = post(t, s, reqBody(i, ``), map[string]string{"X-Latency-Class": "batch"})
		if resp.StatusCode != 200 {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, b)
		}
	}

	classState := func() (map[string]string, map[string]map[string]int64) {
		resp, err := http.Get("http://" + s.Addr() + "/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var doc struct {
			Classes []struct {
				Class       string           `json:"class"`
				State       string           `json:"state"`
				Transitions map[string]int64 `json:"transitions"`
			} `json:"classes"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("bad /slo body %s: %v", raw, err)
		}
		states := map[string]string{}
		trans := map[string]map[string]int64{}
		for _, c := range doc.Classes {
			states[c.Class] = c.State
			trans[c.Class] = c.Transitions
		}
		return states, trans
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		states, trans := classState()
		if states["interactive"] == "page" {
			if trans["interactive"]["warning"] < 1 || trans["interactive"]["page"] < 1 {
				t.Errorf("page reached without passing warning: %v", trans["interactive"])
			}
			if states["batch"] != "ok" {
				t.Errorf("batch state = %q, want ok", states["batch"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interactive never paged; states %v transitions %v", states, trans)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Burn pressure alone must have escalated the ladder (no queue ever
	// formed in this test).
	deadline = time.Now().Add(3 * time.Second)
	for s.Ladder().Escalations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("burn pressure never escalated the degrade ladder")
		}
		time.Sleep(25 * time.Millisecond)
	}
}
