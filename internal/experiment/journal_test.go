package experiment

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
)

func TestJournalRoundTripExactBits(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Values JSON floats cannot carry exactly: NaN, infinities, and a
	// full-precision mantissa.
	vals := []float64{0, -0.0, math.NaN(), math.Inf(1), math.Inf(-1), 0.1 + 0.2, -1.2345678901234567e-300}
	if err := j.commit("key", 3, vals); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("replayed %d units, want 1", j2.Len())
	}
	got, ok := j2.lookup("key", 3, len(vals))
	if !ok {
		t.Fatal("committed unit not found after reopen")
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
	// Wrong length or key is a miss, never a partial hit.
	if _, ok := j2.lookup("key", 3, len(vals)+1); ok {
		t.Error("length mismatch served as a hit")
	}
	if _, ok := j2.lookup("other", 3, len(vals)); ok {
		t.Error("unknown key served as a hit")
	}
}

func TestJournalSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.commit("key", 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.commit("key", 1, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, non-JSON tail line.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"key","g":2,"b":["40`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("journal with torn tail failed to open: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("replayed %d units, want 2 (torn tail skipped)", j2.Len())
	}
	if _, ok := j2.lookup("key", 2, 2); ok {
		t.Error("torn record served as a hit")
	}
}

// TestJournalCommitAfterTornTail: a record committed after resuming a
// journal with a torn, newline-less tail lands on a line of its own and
// replays on the next resume.
func TestJournalCommitAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.commit("a", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"b","g":0,"b":["3ff`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if j, err = OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	if err := j.commit("c", 0, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, key := range []string{"a", "c"} {
		if _, ok := j.lookup(key, 0, 1); !ok {
			t.Errorf("record %q lost across the torn tail", key)
		}
	}
	if _, ok := j.lookup("b", 0, 1); ok {
		t.Error("torn record served as a hit")
	}
}

// FuzzOpenJournal replays arbitrary bytes as a journal. OpenJournal never
// panics; it either fails with an error naming the journal or replays
// only cells that decode; and a record committed after opening replays on
// the next open, whatever the file held before.
func FuzzOpenJournal(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		`{"m":"run"}` + "\n" + `{"k":"a","g":1,"b":["3ff0000000000000"]}` + "\n",
		`{"k":"a","g":1,"b":["3ff0000000000000"]}` + "\n" + `{"k":"b","g":0,"b":["40`,
		`{"k":"a","g":1,"b":["zz"]}` + "\r\n" + `{"k":"fresh","g":0,"b":[]}`,
		`{"k":"fresh","g":0,"b":["0","7ff8000000000001"]}`,
		"\x00\xff{\"k\":",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "journal") {
				t.Fatalf("open error does not name the journal: %v", err)
			}
			return
		}
		for cell, vals := range j.done {
			if got, ok := j.lookup(cell.key, cell.gi, len(vals)); !ok || len(got) != len(vals) {
				t.Fatalf("replayed cell %v does not read back", cell)
			}
		}
		vals := []float64{math.Pi, math.Inf(-1)}
		if err := j.commit("fresh", 0, vals); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, err = OpenJournal(dir)
		if err != nil {
			t.Fatalf("reopen after commit: %v", err)
		}
		defer j.Close()
		got, ok := j.lookup("fresh", 0, len(vals))
		if !ok {
			t.Fatalf("committed record lost on reopen of %q", data)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("committed value %d replayed as %v", i, got[i])
			}
		}
	})
}

func TestJournalKeySeparatesConfigurations(t *testing.T) {
	cfg := Default(generator.MDET)
	cfg.Graphs = 4
	asg := []Assigner{Slicing(core.PURE(), core.CCNE())}
	base := cfg.journalKey("t", asg)
	if cfg.journalKey("t", asg) != base {
		t.Error("journal key not deterministic")
	}
	vary := []Config{cfg, cfg, cfg, cfg}
	vary[0].Seed++
	vary[1].Graphs++
	vary[2].Scheduler.Preemptive = true
	vary[3].Sizes = []int{2}
	for i, v := range vary {
		if v.journalKey("t", asg) == base {
			t.Errorf("variant %d shares the base journal key", i)
		}
	}
	if cfg.journalKey("other title", asg) == base {
		t.Error("title not part of the journal key")
	}
	if cfg.journalKey("t", []Assigner{Slicing(core.ADAPT(1.25), core.CCNE())}) == base {
		t.Error("assigner labels not part of the journal key")
	}
}

// TestJournalKeyDigestsPinned pins the journal keys of a preemptive and a
// network table, so journals written by earlier builds keep resuming: the
// run-time model moved into Config.Scheduler without changing the digest.
func TestJournalKeyDigestsPinned(t *testing.T) {
	cfg := Default(generator.MDET)
	cfg.Graphs = 4
	cfg.Sizes = []int{2, 3, 8, 16}
	asg := []Assigner{Slicing(core.PURE(), core.CCNE())}
	pre := cfg
	pre.Scheduler.Preemptive = true
	net := cfg
	net.Network = networkMemo(channel.Builders()["ring"])
	for _, c := range []struct {
		name, title, want string
		cfg               Config
	}{
		{"preemptive", "Section 8: run-time model (preemptive EDF)",
			"30f96398e870c086613e91537c733b6c34000be5cf90390d92b97367781cd3c4", pre},
		{"network", "Extension X5: real-time channels (ring network)",
			"37cfceaab845beb49af424cf762f9064bc0f144790f8e5d854eedbd766fedb75", net},
	} {
		if got := c.cfg.journalKey(c.title, asg); got != c.want {
			t.Errorf("%s journal key %s, want %s", c.name, got, c.want)
		}
	}
}

// resumeCfg is a single-worker sweep whose interruption point is
// deterministic: with Workers=1 units complete in batch order, so cancelling
// from inside unit 0's last cell journals exactly one unit.
func resumeCfg() Config {
	cfg := Default(generator.MDET)
	cfg.Graphs = 6
	cfg.Sizes = []int{2, 5}
	cfg.Workers = 1
	return cfg
}

// TestInterruptedRunResumesByteIdentical is the checkpoint–resume
// acceptance test: a run killed mid-sweep, resumed against the same journal
// directory, converges on a table byte-identical to an uninterrupted run —
// and a third run over the fully-journaled table recomputes nothing.
func TestInterruptedRunResumesByteIdentical(t *testing.T) {
	asg := []Assigner{Slicing(core.ADAPT(1.25), core.CCNE())}
	want, err := resumeCfg().Run("resume", asg...)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Phase 1: interrupt after the first unit's last distribution (ADAPT
	// depends on the platform, so every cell assigns). The hook wraps the
	// real assigner, so journaled values match the uninterrupted run's.
	j1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var assigns atomic.Int32
	cfg1 := resumeCfg()
	cfg1.Journal = j1
	interrupt := hookAssigner{asg[0], func() {
		if assigns.Add(1) == int32(len(cfg1.Sizes)) {
			cancel() // unit 0 completes; the cancellation stops everything after
		}
	}}
	_, err = cfg1.RunContext(ctx, "resume", interrupt)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("interrupted run returned %v, want *PartialError", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mustOpenLen(t, dir); n == 0 || n >= cfg1.Graphs {
		t.Fatalf("interruption journaled %d units, want in (0, %d)", n, cfg1.Graphs)
	}

	// Phase 2: resume. The journal replays the finished units; the rest are
	// recomputed from the same immutable inputs.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := resumeCfg()
	cfg2.Journal = j2
	got, err := cfg2.Run("resume", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
			want.String(), got.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed table raw values differ from uninterrupted run")
	}

	// Phase 3: everything journaled — the run must replay all units and
	// never reach the pipeline (the recorder counts measured cells).
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	cfg3 := resumeCfg()
	cfg3.Journal = j3
	cfg3.Metrics = metrics.New()
	got3, err := cfg3.Run("resume", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if n := measured(cfg3.Metrics); n != 0 {
		t.Errorf("fully-journaled run recomputed %d cells, want 0", n)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Error("fully-journaled replay differs from uninterrupted run")
	}
}

// measured returns how many cells the recorded runs measured.
func measured(rec *metrics.Recorder) int64 {
	return rec.Snapshot().Stages[metrics.StageMeasure].Count
}

// TestResumeIgnoresForeignJournal: records keyed by a different
// configuration are never replayed into a run they do not match.
func TestResumeIgnoresForeignJournal(t *testing.T) {
	dir := t.TempDir()
	asg := []Assigner{Slicing(core.PURE(), core.CCNE())}

	j1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeCfg()
	cfg.Graphs = 2
	cfg.Journal = j1
	if _, err := cfg.Run("resume", asg...); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Same directory, different seed: every unit must be recomputed.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg2 := cfg
	cfg2.Seed++
	cfg2.Journal = j2
	cfg2.Metrics = metrics.New()
	if _, err := cfg2.Run("resume", asg...); err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg2.Graphs * len(cfg2.Sizes)); measured(cfg2.Metrics) != want {
		t.Errorf("foreign journal short-circuited work: %d cells recomputed, want %d", measured(cfg2.Metrics), want)
	}
}

// TestJournalWorksWithOrchestrator: journaled replay and the shared pool
// compose — an orchestrated resume matches the unorchestrated reference.
func TestJournalWorksWithOrchestrator(t *testing.T) {
	asg := orcAssigners()
	cfg := orcCfg()
	want, err := cfg.Run("orc-resume", asg...)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := cfg
	cfg1.Journal = j1
	if _, err := cfg1.Run("orc-resume", asg...); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != cfg.Graphs {
		t.Fatalf("journal holds %d units, want %d", j2.Len(), cfg.Graphs)
	}
	orc := NewOrchestrator(3)
	defer orc.Close()
	cfg2 := cfg
	cfg2.Orchestrator = orc
	cfg2.Journal = j2
	got, err := cfg2.Run("orc-resume", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("orchestrated resume differs from unorchestrated reference")
	}
}

func mustOpenLen(t *testing.T, dir string) int {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Len()
}
