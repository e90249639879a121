package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
)

func TestParseSizesRange(t *testing.T) {
	got, err := parseSizes("2-5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("parseSizes(2-5) = %v", got)
	}
	if got, err := parseSizes(fmt.Sprintf("1-%d", maxSize)); err != nil || len(got) != maxSize {
		t.Fatalf("parseSizes(1-%d) = %d sizes, %v", maxSize, len(got), err)
	}
}

func TestParseSizesList(t *testing.T) {
	got, err := parseSizes("2, 8,16")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 8, 16}) {
		t.Fatalf("parseSizes list = %v", got)
	}
}

func TestParseSizesSingle(t *testing.T) {
	got, err := parseSizes("4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("parseSizes(4) = %v", got)
	}
}

func TestParseSizesErrors(t *testing.T) {
	// The huge range used to size an allocation directly and panicked with
	// "makeslice: cap out of range"; sizes and list lengths are bounded now.
	for _, bad := range []string{"", "x", "5-2", "0-3", "2,x", "-1",
		"1-9223372036854775807", "1-1000000000", "1025", "2,5000",
		strings.Repeat("2,", maxSizes) + "2"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

// FuzzParseSizes checks the -sizes parser on arbitrary specs: it never
// panics, an accepted spec yields between 1 and maxSizes sizes, each in
// [1, maxSize], and a range spec yields an ascending run of consecutive
// sizes.
func FuzzParseSizes(f *testing.F) {
	for _, seed := range []string{"2-16", "2,8,16", "4", "", "-1", "5-2", "1-9223372036854775807", " 3 - 7 ", "1,,2", "0x10"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := parseSizes(spec)
		if err != nil {
			return
		}
		if len(got) == 0 || len(got) > maxSizes {
			t.Fatalf("parseSizes(%q) accepted %d sizes", spec, len(got))
		}
		for _, n := range got {
			if n < 1 || n > maxSize {
				t.Fatalf("parseSizes(%q) accepted size %d", spec, n)
			}
		}
		if strings.Contains(spec, "-") && !strings.Contains(spec, ",") {
			for i := 1; i < len(got); i++ {
				if got[i] != got[i-1]+1 {
					t.Fatalf("parseSizes(%q) = %v, not an ascending run", spec, got)
				}
			}
		}
	})
}

func TestParseFigures(t *testing.T) {
	got, err := parseFigures("all")
	if err != nil || !reflect.DeepEqual(got, experiment.FigureOrder()) {
		t.Fatalf("parseFigures(all) = %v, %v", got, err)
	}
	if got, err := parseFigures("5,2"); err != nil || !reflect.DeepEqual(got, []string{"5", "2"}) {
		t.Fatalf("parseFigures(5,2) = %v, %v", got, err)
	}
}

// TestParseFiguresRejectsRepeats pins the -figure regression: "2,2" used
// to run figure 2 twice and print two "=== figure 2" blocks, and "2,"
// carried an empty key into the registry lookup.
func TestParseFiguresRejectsRepeats(t *testing.T) {
	for spec, want := range map[string]string{
		"2,2":   `"2"`,
		"2,":    "empty",
		"":      "empty",
		"5,2,5": `"5"`,
		"9":     `"9"`,
		"all,2": `"all"`,
	} {
		_, err := parseFigures(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseFigures(%q) = %v, want an error naming %s", spec, err, want)
		}
	}
}

// FuzzParseFigures checks the -figure parser on arbitrary specs: it never
// panics, an accepted list is non-empty, duplicate-free and made of
// registry keys, and "all" yields FigureOrder.
func FuzzParseFigures(f *testing.F) {
	for _, seed := range []string{"all", "2", "2,2", "2,", ",", "5,ccr,2", "all,2", " 2", "ALL"} {
		f.Add(seed)
	}
	registry := experiment.Figures()
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := parseFigures(spec)
		if err != nil {
			return
		}
		if spec == "all" && !reflect.DeepEqual(got, experiment.FigureOrder()) {
			t.Fatalf("parseFigures(all) = %v", got)
		}
		if len(got) == 0 {
			t.Fatalf("parseFigures(%q) accepted an empty list", spec)
		}
		seen := make(map[string]bool, len(got))
		for _, key := range got {
			if _, ok := registry[key]; !ok {
				t.Fatalf("parseFigures(%q) accepted unknown key %q", spec, key)
			}
			if seen[key] {
				t.Fatalf("parseFigures(%q) accepted %q twice", spec, key)
			}
			seen[key] = true
		}
	})
}

func TestSanitize(t *testing.T) {
	if got := sanitize("MDET CCR=1.5"); got != "MDET_CCR_1_5" {
		t.Fatalf("sanitize = %q", got)
	}
}

func TestRunSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-figure", "5", "-graphs", "3", "-sizes", "2,8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figure 5", "PURE/CCNE", "ADAPT/CCNE", "LDET", "MDET", "HDET"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunWithPlotAndCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-figure", "baselines", "-graphs", "2", "-sizes", "2,4", "-plot", "-csv", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("wrote %d CSV files, want 1", len(files))
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "size,") {
		t.Errorf("CSV malformed: %q", string(data)[:20])
	}
	if !strings.Contains(buf.String(), "|") {
		t.Error("plot not rendered")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-figure", "nope", "-graphs", "2", "-sizes", "2"}, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-sizes", "zzz"}, &buf); err == nil {
		t.Fatal("bad sizes accepted")
	}
}

// TestRunHelp: -h and -help print the usage (to stderr) and succeed
// without running anything.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{arg}, &buf); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s wrote output:\n%s", arg, buf.String())
		}
	}
}

func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.md")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-figure", "5", "-graphs", "3", "-sizes", "2,8", "-report", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"# Reproduction report", "## Figure 5", "ADAPT/CCNE", "Paired per-graph difference"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestRunVerifyRestrictedSizes: -verify over a size list without N=3
// reports C1 as not evaluable, naming the missing curve, and fails the
// run instead of panicking.
func TestRunVerifyRestrictedSizes(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-verify", "-graphs", "2", "-sizes", "2,4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "C1") {
		t.Fatalf("err = %v, want a not-evaluable failure naming C1", err)
	}
	out := buf.String()
	for _, want := range []string{"[N/A] C1", `not evaluable: claim references missing curve "PURE/CCNE" size 3`, "claims reproduced"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVerifyMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claims.md")
	var buf bytes.Buffer
	// Tiny batch: the claim machinery must run end to end; statistical
	// verdicts at this scale are not asserted.
	err := run(context.Background(), []string{"-verify", "-graphs", "2", "-report", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "claims reproduced") {
		t.Errorf("verify summary missing:\n%s", out)
	}
	for _, id := range []string{"C1", "C5", "C10"} {
		if !strings.Contains(out, id+" —") {
			t.Errorf("claim %s missing from output", id)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "## Claims:") {
		t.Error("report missing claims section")
	}
}

// TestRunStats checks the -stats block, including its "schedule reuse"
// line, and that the pool size does not change the reuse counts.
func TestRunStats(t *testing.T) {
	reuse := regexp.MustCompile(`(?m)^schedule reuse: [1-9]\d* of \d+ cells \(\d+ past idle processors, \d+ cross-table\)$`)
	var lines []string
	for _, workers := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{"-figure", "2", "-graphs", "2", "-sizes", "2-8", "-stats", "-workers", workers}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"stage", "assign", "schedule", "fingerprint cache", "hit rate"} {
			if !strings.Contains(out, want) {
				t.Errorf("-stats output missing %q", want)
			}
		}
		line := reuse.FindString(out)
		if line == "" {
			t.Fatalf("-workers %s: no schedule reuse line in -stats output:\n%s", workers, out)
		}
		lines = append(lines, line)
	}
	if lines[0] != lines[1] {
		t.Errorf("schedule reuse differs with the pool size:\n-workers 1: %s\n-workers 4: %s", lines[0], lines[1])
	}
}

func TestRunProfilesAndPprof(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-figure", "2", "-graphs", "2", "-sizes", "2",
		"-cpuprofile", cpu, "-memprofile", mem, "-pprof", "127.0.0.1:0"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", path, err)
		}
	}
	if !strings.Contains(buf.String(), "pprof server on http://127.0.0.1:") {
		t.Errorf("pprof address not announced:\n%s", buf.String())
	}
}

func TestParseFaults(t *testing.T) {
	plan, err := parseFaults("panic=0.1,hang=0.2,err=0.3,seed=9,hangms=50")
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanicRate != 0.1 || plan.HangRate != 0.2 || plan.ErrorRate != 0.3 {
		t.Errorf("rates = %v/%v/%v", plan.PanicRate, plan.HangRate, plan.ErrorRate)
	}
	if plan.Seed != 9 {
		t.Errorf("seed = %d, want 9", plan.Seed)
	}
	if plan.HangDuration != 50*time.Millisecond {
		t.Errorf("hang duration = %v, want 50ms", plan.HangDuration)
	}
	for _, bad := range []string{"", "panic", "panic=2", "panic=-0.1", "seed=x", "hangms=-1", "nope=1",
		"panic=NaN", "err=nan", "hang=Inf", "hangms=9223372036855"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("parseFaults(%q) accepted", bad)
		}
	}
}

// readCSVs returns the contents of every CSV in dir keyed by file name.
func readCSVs(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[f.Name()] = string(data)
	}
	return out
}

// TestRunChaosProducesIdenticalCSVs is the CLI-level chaos acceptance test:
// a run with faults injected at >10% rates writes CSV tables byte-identical
// to a clean run's.
func TestRunChaosProducesIdenticalCSVs(t *testing.T) {
	args := []string{"-figure", "baselines", "-graphs", "4", "-sizes", "2,4"}
	cleanDir, chaosDir := t.TempDir(), t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), append(args, "-csv", cleanDir), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	chaosArgs := append(args, "-csv", chaosDir,
		"-faults", "panic=0.2,err=0.2,seed=3", "-retries", "3")
	if err := run(context.Background(), chaosArgs, &buf); err != nil {
		t.Fatal(err)
	}
	clean, chaos := readCSVs(t, cleanDir), readCSVs(t, chaosDir)
	if !reflect.DeepEqual(clean, chaos) {
		t.Errorf("chaos CSVs differ from clean run:\nclean: %v\nchaos: %v", clean, chaos)
	}
}

// TestRunInterruptedThenResumedMatchesReference: a run whose context is
// already cancelled exits with the partial error (exit code 2 in main), and
// a -resume re-run against the same checkpoint directory produces CSVs
// byte-identical to an uninterrupted reference run.
func TestRunInterruptedThenResumedMatchesReference(t *testing.T) {
	args := []string{"-figure", "baselines", "-graphs", "4", "-sizes", "2,4"}
	refDir, resDir := t.TempDir(), t.TempDir()
	ckDir := filepath.Join(t.TempDir(), "ck")
	var buf bytes.Buffer
	if err := run(context.Background(), append(args, "-csv", refDir), &buf); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the interruption arrives before any unit completes
	buf.Reset()
	err := run(ctx, append(args, "-resume", ckDir), &buf)
	if !errors.Is(err, errPartial) {
		t.Fatalf("interrupted run returned %v, want errPartial", err)
	}
	if !strings.Contains(buf.String(), "INCOMPLETE") {
		t.Errorf("interrupted run did not report the incomplete figure:\n%s", buf.String())
	}

	buf.Reset()
	if err := run(context.Background(), append(args, "-resume", ckDir, "-csv", resDir), &buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readCSVs(t, refDir), readCSVs(t, resDir)) {
		t.Error("resumed CSVs differ from uninterrupted reference")
	}

	// A third run over the fully-journaled checkpoint replays everything.
	buf.Reset()
	if err := run(context.Background(), append(args, "-resume", ckDir), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resume: 4 journaled units found") {
		t.Errorf("replay did not announce the journaled units:\n%s", buf.String())
	}
}

// TestRunResumeMismatchedFlagsFails is the -resume misconfiguration
// regression: a checkpoint recorded under one flag set must refuse a
// resume under another with a clear error, instead of silently keying
// every journal lookup into a miss and recomputing the whole sweep.
func TestRunResumeMismatchedFlagsFails(t *testing.T) {
	ckDir := filepath.Join(t.TempDir(), "ck")
	var buf bytes.Buffer
	if err := run(context.Background(),
		[]string{"-figure", "baselines", "-graphs", "4", "-sizes", "2,4", "-resume", ckDir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, changed := range [][]string{
		{"-figure", "baselines", "-graphs", "8", "-sizes", "2,4"},               // graphs
		{"-figure", "baselines", "-graphs", "4", "-sizes", "2,8"},               // sizes
		{"-figure", "baselines", "-graphs", "4", "-sizes", "2,4", "-seed", "7"}, // seed
	} {
		buf.Reset()
		err := run(context.Background(), append(changed, "-resume", ckDir), &buf)
		if !errors.Is(err, experiment.ErrJournalMismatch) {
			t.Fatalf("resume with %v: got %v, want ErrJournalMismatch", changed, err)
		}
	}
	// Unchanged flags still resume cleanly.
	buf.Reset()
	if err := run(context.Background(),
		[]string{"-figure", "baselines", "-graphs", "4", "-sizes", "2,4", "-resume", ckDir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resume: 4 journaled units found") {
		t.Errorf("matching resume did not replay:\n%s", buf.String())
	}
}

// TestRunValidateFlag: the opt-in schedule validation completes on a correct
// pipeline without changing the tables.
func TestRunValidateFlag(t *testing.T) {
	plainDir, checkedDir := t.TempDir(), t.TempDir()
	args := []string{"-figure", "5", "-graphs", "2", "-sizes", "2,4"}
	var buf bytes.Buffer
	if err := run(context.Background(), append(args, "-csv", plainDir), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(context.Background(), append(args, "-csv", checkedDir, "-validate", "1"), &buf); err != nil {
		t.Fatalf("validated run failed: %v", err)
	}
	if !reflect.DeepEqual(readCSVs(t, plainDir), readCSVs(t, checkedDir)) {
		t.Error("-validate changed the tables")
	}
}

// TestRunBadFaultSpec: a malformed -faults spec is rejected before any work.
func TestRunBadFaultSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-faults", "panic=nope"}, &buf); err == nil {
		t.Fatal("bad -faults spec accepted")
	}
}

// opsGate is the output sink of the live-ops test: it captures run()'s
// output, reports the ops server's address when the banner appears, and
// then blocks run() at its first table print — after the sweep completed
// but while the server is still up — so the test can probe the endpoints
// against a fully populated run regardless of how fast the sweep was.
type opsGate struct {
	buf     bytes.Buffer
	addrCh  chan string
	reached chan struct{} // closed when the gate point is hit
	release chan struct{} // closed by the test to let run() finish
	sent    bool
	gated   bool
}

func (g *opsGate) Write(p []byte) (int, error) {
	g.buf.Write(p)
	if !g.sent {
		if _, rest, ok := strings.Cut(g.buf.String(), "ops server on http://"); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				g.sent = true
				g.addrCh <- addr
			}
		}
	}
	if !g.gated && strings.Contains(g.buf.String(), "=== figure") {
		g.gated = true
		close(g.reached)
		<-g.release
	}
	return len(p), nil
}

func TestRunLiveOpsEndpoint(t *testing.T) {
	g := &opsGate{addrCh: make(chan string, 1), reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(),
			[]string{"-figure", "2", "-graphs", "3", "-sizes", "2-4", "-http", "127.0.0.1:0"}, g)
	}()
	var addr string
	select {
	case addr = <-g.addrCh:
	case err := <-done:
		t.Fatalf("run exited before announcing the ops server: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("ops server banner never appeared")
	}
	select {
	case <-g.reached:
	case err := <-done:
		t.Fatalf("run exited before printing tables: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("sweep never reached the table print")
	}
	// The sweep is complete and run() is parked on our gate: the server is
	// up and every counter is final.
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}
	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
	metricsBody := get("/metrics")
	for _, want := range []string{
		"dlexp_stage_duration_seconds_bucket",
		"dlexp_pool_jobs_total",
		`dlexp_units{state="done"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var prog struct {
		UnitsDone  int `json:"unitsDone"`
		UnitsTotal int `json:"unitsTotal"`
	}
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if prog.UnitsTotal == 0 || prog.UnitsDone != prog.UnitsTotal {
		t.Errorf("/progress = %d/%d done, want complete and nonzero", prog.UnitsDone, prog.UnitsTotal)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRunEventsAndTraceFiles(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "run.jsonl")
	trace := filepath.Join(dir, "run.trace.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-figure", "2", "-graphs", "2", "-sizes", "2,4",
		"-events", events, "-trace", trace,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event log written to", "chrome trace written to"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}

	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	units := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Kind    string `json:"kind"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event log line not JSON: %v\n%s", err, line)
		}
		if ev.Kind == "unit" && ev.Outcome == "ok" {
			units++
		}
	}
	// Figure 2 runs one table per scenario with 2 graphs each.
	if units == 0 || units%2 != 0 {
		t.Errorf("event log has %d ok unit spans, want a positive multiple of 2", units)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var chromeEvs []map[string]any
	if err := json.Unmarshal(raw, &chromeEvs); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v", err)
	}
	if len(chromeEvs) == 0 {
		t.Error("chrome trace empty")
	}
}

func TestRunProgressFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-figure", "baselines", "-graphs", "2", "-sizes", "2", "-progress", "1h",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// The interval never fires inside the run; the reporter still prints
	// its final line at shutdown — to stderr, never into table output.
	if strings.Contains(buf.String(), "progress ") {
		t.Error("progress line leaked into table output")
	}
}
