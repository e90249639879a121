// Channels: run a realistic benchmark application over contended multihop
// real-time channels — the Section 8 scenario of the paper — and compare
// communication-cost estimation strategies, then apply the iterative
// improvement pass to the best one.
package main

import (
	"fmt"
	"log"

	dl "deadlinedist"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The satellite attitude-control benchmark, with its sensor/actuator
	// subtasks pinned to the two I/O nodes.
	var app dl.BenchmarkApp
	for _, a := range dl.BenchmarkApps() {
		if a.Name == "aocs" {
			app = a
		}
	}
	g, err := app.Build(dl.NewRandomSource(42))
	if err != nil {
		return err
	}
	fmt.Printf("application: %s\n  %s\n", app.Name, app.About)
	fmt.Printf("  %d subtasks, %d messages, depth %d\n\n", g.NumSubtasks(), g.NumMessages(), g.Depth())

	const procs = 4
	sys, err := dl.NewSystem(procs)
	if err != nil {
		return err
	}
	if f := dl.CheckFeasibility(g, sys); !f.Feasible() {
		return fmt.Errorf("infeasible on %d processors: %v", procs, f.Violations)
	}

	// A ring interconnect with contended, deadline-scheduled links.
	net, err := dl.RingNetwork(procs, 1)
	if err != nil {
		return err
	}
	cfg := dl.SchedulerConfig{RespectRelease: true}
	chCfg := cfg
	chCfg.Network = net

	fmt.Printf("%-22s %14s %14s\n", "estimation strategy", "max lateness", "missed windows")
	var best *dl.Result
	bestLateness := 0.0
	for _, est := range []dl.CommEstimator{dl.CCNE(), dl.CCHOP(net), dl.CCAA()} {
		res, err := dl.Distribute(g, sys, dl.PURE(), est)
		if err != nil {
			return err
		}
		ms, err := dl.Schedule(g, sys, res, chCfg)
		if err != nil {
			return err
		}
		if err := dl.ValidateSchedule(g, sys, res, ms, chCfg); err != nil {
			return err
		}
		l := ms.MaxLateness(g, res)
		fmt.Printf("%-22s %14.2f %14d\n", est.Name(), l, ms.MissedDeadlines(g, res))
		if best == nil || l < bestLateness {
			best, bestLateness = res, l
		}
	}

	// Iterative improvement on the winning distribution (the schedule
	// feedback uses the contention-free scheduler inside the improver).
	out, err := dl.Improve(g, sys, best, dl.ImproveConfig{Iterations: 8, Scheduler: cfg})
	if err != nil {
		return err
	}
	fmt.Printf("\niterative improvement (contention-free evaluation): %s\n", out)
	return nil
}
