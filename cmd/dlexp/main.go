// Command dlexp regenerates the experiments of Jonsson & Shin (ICDCS 1997):
// every figure of the paper, the Section 8 complementary sweeps and the
// repository's extension studies.
//
// Usage:
//
//	dlexp -figure 5                 # reproduce Figure 5 (full 128-graph batch)
//	dlexp -figure all -graphs 32    # everything, reduced batch
//	dlexp -figure 2 -plot           # include ASCII charts
//	dlexp -figure 2 -csv out/       # also write CSV files
//	dlexp -verify -report R.md      # machine-check the paper's claims
//	dlexp -stats                    # per-stage timings and cache traffic
//	dlexp -cpuprofile cpu.out -pprof localhost:6060
//	dlexp -figure all -resume ck/   # checkpoint to ck/; re-run resumes there
//	dlexp -validate 7               # spot-check schedules against invariants
//	dlexp -faults panic=0.1,hang=0.1,err=0.1 -unit-timeout 5s   # chaos run
//	dlexp -http localhost:9090      # live ops: /metrics /progress /healthz
//	dlexp -events run.jsonl -trace run.trace.json -progress 2s  # sweep tracing
//
// Figure keys (DESIGN.md §4): 2 3 4 5 (paper figures), ccr met par topo
// shapes apps policy preempt hetero (Section 8), baselines bus locality
// order channels ablate improve olr dispatch (extensions and ablations).
//
// Exit codes: 0 when every requested table completed, 2 when the run was
// interrupted or ran out of budget and some tables carry FAILED cells
// (everything finished is flushed — re-run with the same -resume directory
// to continue), 1 on a fatal error. See DESIGN.md §9.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/profiling"
	"deadlinedist/internal/report"
)

// errPartial marks a run that drained cleanly after an interruption or a
// budget overrun: some tables carry FAILED cells, everything completed was
// flushed. main maps it to exit code 2.
var errPartial = errors.New("run incomplete")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "dlexp:", err)
	if errors.Is(err, errPartial) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlexp", flag.ContinueOnError)
	var (
		figure     = fs.String("figure", "all", "figure key to reproduce, or 'all'")
		graphs     = fs.Int("graphs", 128, "task graphs per configuration (paper: 128)")
		seed       = fs.Uint64("seed", 1997, "workload batch seed")
		sizes      = fs.String("sizes", "2-16", "system sizes: 'lo-hi' or comma-separated list")
		plot       = fs.Bool("plot", false, "render ASCII charts in addition to tables")
		csvDir     = fs.String("csv", "", "directory to write per-table CSV files (optional)")
		verify     = fs.Bool("verify", false, "evaluate the paper's claims against the reproduced tables")
		reportPath = fs.String("report", "", "write a Markdown reproduction report to this file")
		stats      = fs.Bool("stats", false, "print per-stage engine timings and fingerprint-cache traffic")
		crossCap   = fs.Int("cross-cap", 0, "cross-table assignment cache capacity in entries (0 = default 65536)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		mutexProf  = fs.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		workers    = fs.Int("workers", 0, "size of the worker pool shared by all figures (default GOMAXPROCS)")
		resumeDir  = fs.String("resume", "", "checkpoint directory: journal finished work there and skip it when re-run")
		validate   = fs.Int("validate", 0, "validate a deterministic 1-in-N sample of schedules against the scheduler invariants (0 = off)")
		unitTO     = fs.Duration("unit-timeout", 0, "deadline for one unit of work (one graph through one table's pipeline; 0 = none)")
		budget     = fs.Duration("budget", 0, "wall-clock budget per table; exceeding it yields a partial table (0 = none)")
		retries    = fs.Int("retries", 3, "max attempts per unit on panics, deadline timeouts and transient errors")
		faults     = fs.String("faults", "", "chaos injection: 'panic=P,hang=P,err=P[,seed=N][,hangms=D]' (testing only)")
		httpAddr   = fs.String("http", "", "serve the live ops endpoint on this address: /metrics (Prometheus), /progress (JSON), /healthz, /debug/pprof/")
		eventsPath = fs.String("events", "", "write a JSONL event log (one span per unit attempt and pipeline stage) to this file")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON timeline to this file (open in Perfetto or chrome://tracing)")
		progEvery  = fs.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h: the usage is all that was asked for
	} else if err != nil {
		return err
	}

	prof, err := profiling.Start(profiling.Options{
		CPUProfile: *cpuProfile, MemProfile: *memProfile, PprofAddr: *pprofAddr,
		MutexProfile: *mutexProf,
	})
	if err != nil {
		return err
	}
	defer prof.Stop()
	if addr := prof.Addr(); addr != "" {
		fmt.Fprintf(out, "pprof server on http://%s/debug/pprof/\n", addr)
	}

	sweep, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	base := experiment.Default(generator.MDET)
	base.Graphs = *graphs
	base.Seed = *seed
	base.Sizes = sweep
	base.UnitTimeout = *unitTO
	base.Budget = *budget
	base.Retry = experiment.RetryPolicy{MaxAttempts: *retries}
	base.ValidateSample = *validate
	if *faults != "" {
		plan, err := parseFaults(*faults)
		if err != nil {
			return err
		}
		base.Faults = plan
	}
	if *resumeDir != "" {
		jr, err := experiment.OpenJournal(*resumeDir)
		if err != nil {
			return err
		}
		defer jr.Close()
		// Bind the journal to the flag identity that determines its record
		// keys: resuming under different flags would miss on every lookup
		// and silently recompute the whole sweep, so fail loudly instead.
		meta := fmt.Sprintf("figure=%s|graphs=%d|seed=%d|sizes=%v", *figure, *graphs, *seed, sweep)
		if err := jr.BindMeta(meta); err != nil {
			return fmt.Errorf("resume %s: %w", *resumeDir, err)
		}
		base.Journal = jr
		if n := jr.Len(); n > 0 {
			fmt.Fprintf(out, "resume: %d journaled units found in %s\n", n, *resumeDir)
		}
	}

	// One orchestrator for the whole invocation: every figure's tables
	// share its worker pool, batch cache and cross-table assignment cache.
	orc := experiment.NewOrchestrator(*workers)
	defer orc.Close()
	base.Orchestrator = orc
	orc.SetCrossCacheCap(*crossCap)

	// The ops endpoint and the progress line are fed by the same recorder
	// as -stats, so asking for either turns recording on.
	var rec *metrics.Recorder
	if *stats || *httpAddr != "" || *progEvery > 0 {
		rec = metrics.New()
		base.Metrics = rec
	}
	var prog *obs.Progress
	if *httpAddr != "" || *progEvery > 0 {
		prog = obs.NewProgress()
		base.Progress = prog
	}
	var tr *obs.Tracer
	if *eventsPath != "" || *tracePath != "" {
		if tr, err = obs.NewFiles(*eventsPath, *tracePath); err != nil {
			return err
		}
		base.Trace = tr
	}
	if *httpAddr != "" {
		// The pool (orchestrator) is already running here, so the server is
		// born ready; a SIGINT flips /readyz to draining while /healthz
		// stays green through the graceful drain.
		ready := obs.NewReadiness()
		ready.SetStarted(true)
		go func() {
			<-ctx.Done()
			ready.SetDraining(true)
		}()
		srv, err := obs.ServeReady(*httpAddr, rec, prog, ready)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "ops server on http://%s (/metrics /progress /healthz /readyz)\n", srv.Addr())
	}
	reporter := obs.StartReporter(os.Stderr, *progEvery, prog, rec)
	finish := func() error {
		reporter.Stop()
		if tr != nil {
			if err := tr.Close(); err != nil {
				return fmt.Errorf("event trace: %w", err)
			}
			if *eventsPath != "" {
				fmt.Fprintf(out, "event log written to %s\n", *eventsPath)
			}
			if *tracePath != "" {
				fmt.Fprintf(out, "chrome trace written to %s\n", *tracePath)
			}
		}
		if rec == nil {
			return prof.Stop()
		}
		snap := rec.Snapshot()
		if *stats {
			fmt.Fprintf(out, "\n%s\n", snap.String())
		}
		return prof.Stop()
	}

	if *verify {
		if err := runVerify(ctx, base, out, *reportPath); err != nil {
			return err
		}
		return finish()
	}

	keys, err := parseFigures(*figure)
	if err != nil {
		return err
	}
	// Every figure runs concurrently over the shared pool; output follows
	// the deterministic key order, so its bytes match a sequential run.
	runStart := time.Now()
	runs := experiment.RunFigures(ctx, base, keys)
	allTables := make(map[string][]*experiment.Table, len(keys))
	var partialKeys []string
	for ki, key := range keys {
		tables := runs[ki].Tables
		if err := runs[ki].Err; err != nil {
			var pe *experiment.PartialError
			if !errors.As(err, &pe) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("figure %s: %w", key, err)
			}
			// Interrupted or out of budget: print what completed (partial
			// tables carry FAILED cells), keep draining the other figures,
			// and report exit code 2 at the end.
			partialKeys = append(partialKeys, key)
			fmt.Fprintf(out, "=== figure %s: INCOMPLETE (%v) ===\n\n", key, err)
		} else {
			fmt.Fprintf(out, "=== figure %s (%d graphs/point, %v) ===\n\n", key, *graphs, runs[ki].Elapsed.Round(time.Millisecond))
		}
		allTables[key] = tables
		for i, t := range tables {
			fmt.Fprintln(out, t.String())
			if *plot {
				fmt.Fprintln(out, t.Plot(60, 14))
			}
			if *csvDir != "" {
				name := fmt.Sprintf("figure_%s_%d_%s.csv", key, i, sanitize(t.Scenario))
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(t.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
	}
	if *reportPath != "" {
		if err := writeReport(*reportPath, base, keys, allTables, nil, time.Since(runStart)); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *reportPath)
	}
	if err := finish(); err != nil {
		return err
	}
	if len(partialKeys) > 0 {
		return fmt.Errorf("%w: figures %s carry FAILED cells (re-run with -resume to continue)",
			errPartial, strings.Join(partialKeys, ", "))
	}
	return nil
}

func runVerify(ctx context.Context, base experiment.Config, out io.Writer, reportPath string) error {
	start := time.Now()
	results, err := experiment.VerifyClaims(ctx, base)
	if err != nil {
		return err
	}
	if reportPath != "" {
		if err := writeReport(reportPath, base, nil, nil, results, time.Since(start)); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n\n", reportPath)
	}
	passed := 0
	var unevaluable []string
	for _, r := range results {
		status := "FAIL"
		switch {
		case r.Passed:
			status = "PASS"
			passed++
		case r.NotEvaluable:
			status = "N/A"
			unevaluable = append(unevaluable, r.Claim.ID)
		}
		fmt.Fprintf(out, "[%s] %s — %s\n", status, r.Claim.ID, r.Claim.Statement)
		fmt.Fprintf(out, "       source: %s\n", r.Claim.Source)
		fmt.Fprintf(out, "       detail: %s\n\n", r.Detail)
	}
	fmt.Fprintf(out, "%d/%d claims reproduced (%d graphs/point, %v)\n",
		passed, len(results), base.Graphs, time.Since(start).Round(time.Millisecond))
	if len(unevaluable) > 0 {
		return fmt.Errorf("claims %s not evaluable over this run's tables (the claims need the default -sizes 2-16)",
			strings.Join(unevaluable, ", "))
	}
	return nil
}

func writeReport(path string, base experiment.Config, keys []string,
	tables map[string][]*experiment.Table, claims []experiment.ClaimResult, elapsed time.Duration) error {

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	opts := report.Options{
		Title:   "Reproduction report: Jonsson & Shin, ICDCS 1997",
		Graphs:  base.Graphs,
		Seed:    base.Seed,
		Elapsed: elapsed,
		PairedPairs: [][2]string{
			{"ADAPT/CCNE", "PURE/CCNE"},
			{"THRES/CCNE", "PURE/CCNE"},
		},
	}
	if err := report.Write(f, opts, keys, tables, claims); err != nil {
		return err
	}
	return f.Close()
}

// parseFigures parses the -figure flag: "all" for the whole registry in
// FigureOrder, or a comma-separated list of registry keys. Empty and
// repeated keys are rejected: a repeated key would run and print its
// figure twice.
func parseFigures(spec string) ([]string, error) {
	if spec == "all" {
		return experiment.FigureOrder(), nil
	}
	registry := experiment.Figures()
	keys := strings.Split(spec, ",")
	for i, key := range keys {
		switch {
		case key == "":
			return nil, fmt.Errorf("empty figure key in %q", spec)
		case slices.Contains(keys[:i], key):
			return nil, fmt.Errorf("figure %q listed twice in %q", key, spec)
		}
		if _, ok := registry[key]; !ok {
			return nil, fmt.Errorf("unknown figure %q (known: %s)", key, strings.Join(experiment.FigureOrder(), " "))
		}
	}
	return keys, nil
}

// parseFaults parses the -faults chaos spec; the dialect (panic/hang/err
// rates, seed, hangms, maxfaulty) is owned by experiment.ParseFaults and
// shared with dlserve.
func parseFaults(spec string) (*experiment.FaultPlan, error) {
	return experiment.ParseFaults(spec)
}

// Bounds on the -sizes flag: a system has at most maxSize processors and
// a sweep at most maxSizes system sizes, so no spec can ask for an
// unbounded allocation.
const (
	maxSize  = 1024
	maxSizes = 1024
)

// parseSizes parses the -sizes flag: an inclusive range "lo-hi" or a
// comma-separated list, every size in [1, maxSize].
func parseSizes(s string) ([]int, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok && !strings.Contains(s, ",") {
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a < 1 || b < a {
			return nil, fmt.Errorf("bad size range %q", s)
		}
		if b > maxSize {
			return nil, fmt.Errorf("bad size range %q: sizes above %d are not supported", s, maxSize)
		}
		out := make([]int, 0, b-a+1)
		for n := a; n <= b; n++ {
			out = append(out, n)
		}
		return out, nil
	}
	if strings.Count(s, ",") >= maxSizes {
		return nil, fmt.Errorf("bad size list: more than %d sizes", maxSizes)
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		if n > maxSize {
			return nil, fmt.Errorf("bad size %q: sizes above %d are not supported", part, maxSize)
		}
		out = append(out, n)
	}
	return out, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
