// Periodic: a multi-rate control application — a 10 ms inner control loop,
// a 20 ms guidance loop and a 40 ms telemetry task — transformed into a
// non-periodic task set over one hyperperiod (paper Section 3), then
// distributed and scheduled like any other workload.
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

// loop builds a sample->compute->command chain with the given costs.
func loop(costs [3]float64, msg float64) (*dl.Graph, error) {
	b := dl.NewGraphBuilder()
	sample := b.AddSubtask("sample", costs[0])
	compute := b.AddSubtask("compute", costs[1])
	command := b.AddSubtask("command", costs[2])
	b.Connect(sample, compute, msg)
	b.Connect(compute, command, msg)
	return b.Finalize()
}

func run() error {
	inner, err := loop([3]float64{3, 12, 3}, 4)
	if err != nil {
		return err
	}
	guidance, err := loop([3]float64{4, 20, 4}, 6)
	if err != nil {
		return err
	}
	telemetry, err := loop([3]float64{5, 30, 5}, 10)
	if err != nil {
		return err
	}

	// Periods in 0.1 ms units: 10 ms, 20 ms, 40 ms.
	tasks := []dl.PeriodicTask{
		{Name: "inner", Graph: inner, Period: 100},
		{Name: "guid", Graph: guidance, Period: 200},
		{Name: "telem", Graph: telemetry, Period: 400, Deadline: 380},
	}

	u, err := dl.PeriodicUtilization(tasks)
	if err != nil {
		return err
	}
	combined, hyper, err := dl.UnrollPeriodic(tasks)
	if err != nil {
		return err
	}
	fmt.Printf("periodic set: utilization %.2f, hyperperiod %d\n", u, hyper)
	fmt.Printf("unrolled: %d subtask instances over [0, %d)\n\n", combined.NumSubtasks(), hyper)

	sys, err := dl.NewSystem(2)
	if err != nil {
		return err
	}
	res, err := dl.Distribute(combined, sys, dl.ADAPT(1.25), dl.CCNE())
	if err != nil {
		return err
	}
	cfg := dl.SchedulerConfig{RespectRelease: true}
	sched, err := dl.Schedule(combined, sys, res, cfg)
	if err != nil {
		return err
	}
	if err := dl.ValidateSchedule(combined, sys, res, sched, cfg); err != nil {
		return err
	}

	fmt.Printf("makespan %.1f of hyperperiod %d, max lateness %.2f, missed windows %d\n\n",
		sched.Makespan, hyper, sched.MaxLateness(combined, res), sched.MissedDeadlines(combined, res))
	fmt.Print(dl.Gantt(combined, sys, sched, 72))

	// The same assignment under the preemptive EDF run-time model.
	cfg.Preemptive = true
	pre, err := dl.Schedule(combined, sys, res, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\npreemptive EDF: max lateness %.2f, %d preemptions\n",
		pre.MaxLateness(combined, res), pre.Preemptions(combined))
	return nil
}
