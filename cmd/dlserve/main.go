// Command dlserve runs deadline assignment as a long-lived network
// service: an HTTP/JSON daemon accepting task graphs and returning
// deadline distributions with schedulability verdicts, engineered for the
// failure path first (DESIGN.md §11).
//
// Usage:
//
//	dlserve -addr :8080                          # serve
//	dlserve -addr :8080 -rate 50 -burst 100      # per-tenant quotas
//	dlserve -addr :8080 -max-budget-ms 5000      # clamp client budgets
//	dlserve -addr :8080 -faults err=0.2,seed=7   # chaos mode (tests/CI)
//	dlserve -slo interactive=250ms/0.999         # tighten a class contract
//	dlserve -events ev.jsonl -trace tr.json -access-log -   # full tracing
//
// One request:
//
//	curl -s localhost:8080/v1/assign -d '{
//	  "graph": {"subtasks": [{"name":"a","cost":2},
//	                         {"name":"b","cost":3,"endToEnd":20}],
//	            "arcs": [{"from":"a","to":"b","size":1}]},
//	  "procs": 4, "assigner": "ADAPT", "budgetMs": 500}'
//
// Every request carries a computation budget (budgetMs field or
// X-Budget-Ms header) that is enforced as a context deadline through the
// whole pipeline, and a latency class ("class" field or X-Latency-Class
// header: interactive, standard or batch) that selects the latency
// objective it is scored against on /slo and clamps its budget.
// Responses are content-addressed, so retries are free and bit-identical,
// and every response echoes X-Request-Id (client-supplied or minted).
// Non-2xx responses carry exactly one taxonomy error: invalid (400),
// overload (429 + Retry-After), transient (503), internal (500). SIGTERM
// drains gracefully: /readyz flips to 503, in-flight requests finish
// within their budgets, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlserve:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it serves until ctx is cancelled
// (SIGTERM/SIGINT), then drains and returns the drain's verdict.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "localhost:8080", "listen address")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		inflight   = fs.Int("inflight", 0, "max concurrent requests past admission (0 = pool size)")
		queue      = fs.Int("queue", 0, "max requests waiting for a slot (0 = 4x inflight)")
		rate       = fs.Float64("rate", 0, "per-tenant sustained requests/sec (0 = no quotas)")
		burst      = fs.Float64("burst", 0, "per-tenant burst (0 = max(1, rate))")
		defBudget  = fs.Int("default-budget-ms", 2000, "computation budget of requests that carry none")
		maxBudget  = fs.Int("max-budget-ms", 10000, "upper clamp on client budgets")
		unitTO     = fs.Duration("unit-timeout", 0, "per-attempt watchdog (0 = default budget)")
		retries    = fs.Int("retries", 3, "attempts per request unit (1 disables retries)")
		cacheSize  = fs.Int("cache", 4096, "response-cache capacity (bodies)")
		drainSlack = fs.Duration("drain-slack", 500*time.Millisecond, "drain deadline past the longest request budget")
		faultSpec  = fs.String("faults", "", "chaos spec key=value,... (panic/hang/err rates, seed, hangms, maxfaulty)")
		eventsPath = fs.String("events", "", "write a JSONL event log (request spans and their stage child spans) to this file")
		tracePath  = fs.String("trace", "", "write a Chrome trace (chrome://tracing, ui.perfetto.dev) to this file")
		accessPath = fs.String("access-log", "", "write the structured access log (one JSON line per request) to this file; \"-\" = stdout")
		sloSpec    = fs.String("slo", "", "SLO spec key=value,... (class=objective[/target[/maxbudget]] for interactive/standard/batch, fast=, slow=, warn=, page=, min=, default=)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h: the usage is all that was asked for
	} else if err != nil {
		return err
	}

	cfg := serve.Config{
		Admission: serve.AdmissionConfig{
			MaxInflight: *inflight,
			MaxQueue:    *queue,
			TenantRate:  *rate,
			TenantBurst: *burst,
		},
		Workers:       *workers,
		DefaultBudget: time.Duration(*defBudget) * time.Millisecond,
		MaxBudget:     time.Duration(*maxBudget) * time.Millisecond,
		UnitTimeout:   *unitTO,
		Retry:         experiment.RetryPolicy{MaxAttempts: *retries},
		CacheEntries:  *cacheSize,
		DrainSlack:    *drainSlack,
		Metrics:       metrics.New(),
	}
	if *faultSpec != "" {
		plan, err := experiment.ParseFaults(*faultSpec)
		if err != nil {
			return err
		}
		cfg.Faults = plan
		fmt.Fprintf(out, "chaos mode: %s\n", *faultSpec)
	}
	if *sloSpec != "" {
		slo, err := serve.ParseSLO(*sloSpec)
		if err != nil {
			return err
		}
		cfg.SLO = slo
	}
	if *eventsPath != "" || *tracePath != "" {
		tr, err := obs.NewFiles(*eventsPath, *tracePath)
		if err != nil {
			return err
		}
		defer tr.Close()
		cfg.Trace = tr
	}
	if *accessPath != "" {
		if *accessPath == "-" {
			cfg.AccessLog = out
		} else {
			f, err := os.Create(*accessPath)
			if err != nil {
				return err
			}
			defer f.Close()
			cfg.AccessLog = f
		}
	}

	s := serve.New(cfg)
	if err := s.Start(*addr); err != nil {
		return err
	}
	fmt.Fprintf(out, "dlserve on http://%s (/v1/assign /metrics /slo /healthz /readyz)\n", s.Addr())

	<-ctx.Done()
	fmt.Fprintln(out, "drain: stopped accepting, finishing in-flight requests")
	// The signal context is already cancelled; drain under a fresh one so
	// in-flight requests get their full budgets before the hard bound.
	if err := s.Drain(context.Background()); err != nil {
		return err
	}
	fmt.Fprintln(out, "drain: complete")
	return nil
}
