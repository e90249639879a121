// Command dlsim runs the full pipeline for one task graph: distribute
// end-to-end deadlines with a chosen metric, schedule on a chosen platform,
// and print the windows, a Gantt chart and the lateness measures.
//
// Usage:
//
//	dlgen -seed 7 | dlsim -procs 4 -metric ADAPT
//	dlsim -in graph.json -procs 8 -metric PURE -estimator CCAA -gantt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/profiling"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdin, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlsim:", err)
		os.Exit(1)
	}
}

// maxProcs bounds -procs as dlexp bounds its -sizes: a platform of more
// processors is refused before any memory is spent on it.
const maxProcs = 1024

// simFlags are dlsim's flags, parsed and validated.
type simFlags struct {
	in, metric, estimator, policy     string
	procs                             int
	delta, thres                      float64
	respect, preempt, contended       bool
	gantt, windows, stats             bool
	tracePath                         string
	cpuProfile, memProfile, pprofAddr string
}

// parseFlags parses args, writing usage and parse errors to usage, and
// validates the numeric flags before any input is read: -procs must be
// in [1, maxProcs] and -delta and -cthres finite. Each error names its
// flag.
func parseFlags(args []string, usage io.Writer) (*simFlags, error) {
	var f simFlags
	fs := flag.NewFlagSet("dlsim", flag.ContinueOnError)
	fs.SetOutput(usage)
	fs.StringVar(&f.in, "in", "-", "task graph JSON file ('-' for stdin)")
	fs.IntVar(&f.procs, "procs", 4, fmt.Sprintf("number of processors (1 to %d)", maxProcs))
	fs.StringVar(&f.metric, "metric", "ADAPT", "deadline metric: NORM, PURE, THRES or ADAPT")
	fs.StringVar(&f.estimator, "estimator", "CCNE", "communication estimator: CCNE, CCAA or CCEXP")
	fs.Float64Var(&f.delta, "delta", 1.0, "THRES surplus factor")
	fs.Float64Var(&f.thres, "cthres", 1.25, "THRES/ADAPT threshold as a multiple of MET")
	fs.BoolVar(&f.respect, "respect", true, "time-driven dispatch (respect release times)")
	fs.StringVar(&f.policy, "policy", "EDF", "dispatch policy: EDF, LLF, FIFO or HLF")
	fs.BoolVar(&f.preempt, "preempt", false, "re-simulate under preemptive EDF")
	fs.BoolVar(&f.contended, "contended", false, "serialize messages on a contended bus")
	fs.BoolVar(&f.gantt, "gantt", true, "print an ASCII Gantt chart")
	fs.StringVar(&f.tracePath, "trace", "", "write a Chrome trace-event JSON file (chrome://tracing)")
	fs.BoolVar(&f.windows, "windows", false, "print per-subtask windows")
	fs.BoolVar(&f.stats, "stats", false, "print per-stage pipeline timings")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if f.procs < 1 || f.procs > maxProcs {
		return nil, fmt.Errorf("-procs %d: must be in [1, %d]", f.procs, maxProcs)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{{"delta", f.delta}, {"cthres", f.thres}} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return nil, fmt.Errorf("-%s %v: must be a finite number", v.name, v.val)
		}
	}
	return &f, nil
}

func run(ctx context.Context, args []string, stdin io.Reader, out io.Writer) error {
	f, err := parseFlags(args, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil // -h: the usage is all that was asked for
	}
	if err != nil {
		return err
	}

	prof, err := profiling.Start(profiling.Options{
		CPUProfile: f.cpuProfile, MemProfile: f.memProfile, PprofAddr: f.pprofAddr,
	})
	if err != nil {
		return err
	}
	defer prof.Stop()
	if addr := prof.Addr(); addr != "" {
		fmt.Fprintf(out, "pprof server on http://%s/debug/pprof/\n", addr)
	}
	rec := (*metrics.Recorder)(nil)
	if f.stats {
		rec = metrics.New()
	}

	data, err := readInput(f.in, stdin)
	if err != nil {
		return err
	}
	g, err := taskgraph.Decode(data)
	if err != nil {
		return err
	}

	var opts []platform.Option
	if f.contended {
		opts = append(opts, platform.WithBusContention())
	}
	sys, err := platform.New(f.procs, opts...)
	if err != nil {
		return err
	}

	m, err := parseMetric(f.metric, f.delta, f.thres)
	if err != nil {
		return err
	}
	e, err := parseEstimator(f.estimator)
	if err != nil {
		return err
	}

	// The pipeline stages run inline; a signal arriving between stages
	// aborts before the next one starts.
	if err := ctx.Err(); err != nil {
		return err
	}
	assignStart := time.Now()
	res, err := core.Distributor{Metric: m, Estimator: e}.Distribute(g, sys)
	if err != nil {
		return err
	}
	rec.Observe(metrics.StageAssign, time.Since(assignStart))
	rec.AddSearch(experiment.SearchCounters(res.Search))
	pol, err := parsePolicy(f.policy)
	if err != nil {
		return err
	}
	cfg := scheduler.Config{RespectRelease: f.respect, Policy: pol}
	if err := ctx.Err(); err != nil {
		return err
	}
	schedStart := time.Now()
	var sched *scheduler.Schedule
	if f.preempt {
		if sched, err = scheduler.RunPreemptive(g, sys, res, cfg); err != nil {
			return err
		}
		if err := scheduler.ValidatePreemptive(g, sys, res, sched, cfg); err != nil {
			return fmt.Errorf("schedule validation: %w", err)
		}
	} else {
		if sched, err = scheduler.Run(g, sys, res, cfg); err != nil {
			return err
		}
		if err := scheduler.Validate(g, sys, res, sched, cfg); err != nil {
			return fmt.Errorf("schedule validation: %w", err)
		}
	}
	rec.Observe(metrics.StageSchedule, time.Since(schedStart))

	fmt.Fprintf(out, "graph: %d subtasks, %d messages, depth %d, parallelism %.2f, workload %.1f\n",
		g.NumSubtasks(), g.NumMessages(), g.Depth(), g.AvgParallelism(), g.TotalWork())
	fmt.Fprintf(out, "platform: %d processors, %s topology, contention=%v\n",
		sys.NumProcs(), sys.Topology().Name(), sys.BusContention())
	fmt.Fprintf(out, "distribution: metric %s, estimator %s, %d critical paths, min laxity %.2f\n",
		res.Metric, res.Estimator, len(res.Paths), res.MinLaxity(g))

	if f.windows {
		fmt.Fprintln(out, "\nsubtask windows (release / relative deadline / absolute deadline):")
		nodes := g.Nodes()
		sort.Slice(nodes, func(i, j int) bool { return res.Release[nodes[i].ID] < res.Release[nodes[j].ID] })
		for _, n := range nodes {
			if n.Kind != taskgraph.KindSubtask {
				continue
			}
			fmt.Fprintf(out, "  %-8s c=%6.2f  r=%8.2f  d=%8.2f  D=%8.2f\n",
				n.Name, n.Cost, res.Release[n.ID], res.Relative[n.ID], res.Absolute[n.ID])
		}
	}

	fmt.Fprintf(out, "\nschedule: policy %s, makespan %.2f, utilization %.1f%%", cfg.Policy, sched.Makespan, 100*sched.Utilization(g, sys))
	if f.preempt {
		fmt.Fprintf(out, ", %d preemptions", sched.Preemptions(g))
	}
	fmt.Fprintln(out)
	measureStart := time.Now()
	maxLate, missed, e2eLate := sched.MaxLateness(g, res), sched.MissedDeadlines(g, res), sched.EndToEndLateness(g)
	rec.Observe(metrics.StageMeasure, time.Since(measureStart))
	fmt.Fprintf(out, "max lateness %.2f, missed windows %d, end-to-end lateness %.2f\n",
		maxLate, missed, e2eLate)
	if f.gantt {
		fmt.Fprintln(out)
		io.WriteString(out, scheduler.Gantt(g, sys, sched, 72))
	}
	if f.tracePath != "" {
		tf, err := os.Create(f.tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := obs.WriteChrome(tf, scheduleEvents(g, res, sched)); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntrace written to %s\n", f.tracePath)
	}
	if f.stats {
		fmt.Fprintf(out, "\n%s\n", rec.Snapshot().String())
	}
	return prof.Stop()
}

func readInput(path string, stdin io.Reader) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(stdin)
	}
	return os.ReadFile(path)
}

func parseMetric(name string, delta, thres float64) (core.Metric, error) {
	switch strings.ToUpper(name) {
	case "NORM":
		return core.NORM(), nil
	case "PURE":
		return core.PURE(), nil
	case "THRES":
		return core.THRES(delta, thres), nil
	case "ADAPT":
		return core.ADAPT(thres), nil
	default:
		return nil, fmt.Errorf("unknown metric %q", name)
	}
}

func parsePolicy(name string) (scheduler.Policy, error) {
	for _, p := range scheduler.Policies() {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

func parseEstimator(name string) (core.CommEstimator, error) {
	switch strings.ToUpper(name) {
	case "CCNE":
		return core.CCNE(), nil
	case "CCAA":
		return core.CCAA(), nil
	case "CCEXP":
		return core.CCEXP(), nil
	default:
		return nil, fmt.Errorf("unknown estimator %q", name)
	}
}
