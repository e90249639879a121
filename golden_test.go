package deadlinedist

import (
	"math"
	"testing"
)

// TestGoldenPipeline pins the exact outputs of the full pipeline for the
// canonical workload (seed 1997, batch index 0, MDET, 4 processors,
// time-driven dispatch). Everything in this repository is deterministic;
// any diff here means an algorithmic change, intended or not. Update the
// constants only when DESIGN.md records a deliberate model change.
func TestGoldenPipeline(t *testing.T) {
	src := NewRandomSource(1997)
	g, err := RandomGraph(DefaultWorkload(MDET), src.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSubtasks() != 53 || g.NumMessages() != 111 || g.Depth() != 8 {
		t.Fatalf("workload drifted: %d subtasks, %d messages, depth %d",
			g.NumSubtasks(), g.NumMessages(), g.Depth())
	}
	if math.Abs(g.TotalWork()-1023.834392) > 1e-5 {
		t.Fatalf("total work drifted: %v", g.TotalWork())
	}
	if math.Abs(g.AvgParallelism()-5.092304) > 1e-5 {
		t.Fatalf("parallelism drifted: %v", g.AvgParallelism())
	}

	sys, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchedulerConfig{RespectRelease: true}

	golden := []struct {
		metric                       Metric
		paths                        int
		minLaxity, makespan          float64
		maxLateness, preemptLateness float64
	}{
		{NORM(), 65, 94.056207, 1363.097168, -94.056207, -94.056207},
		{PURE(), 65, 166.837043, 1368.914545, -134.183819, -135.554924},
		{THRES(1, 1.25), 65, 149.679935, 1360.250273, -133.862842, -133.862842},
		{ADAPT(1.25), 65, 144.994742, 1358.003584, -133.219914, -133.219914},
	}
	for _, want := range golden {
		t.Run(want.metric.Name(), func(t *testing.T) {
			res, err := Distribute(g, sys, want.metric, CCNE())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Paths) != want.paths {
				t.Errorf("paths = %d, want %d", len(res.Paths), want.paths)
			}
			if got := res.MinLaxity(g); math.Abs(got-want.minLaxity) > 1e-5 {
				t.Errorf("min laxity = %v, want %v", got, want.minLaxity)
			}
			sched, err := Schedule(g, sys, res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sched.Makespan-want.makespan) > 1e-5 {
				t.Errorf("makespan = %v, want %v", sched.Makespan, want.makespan)
			}
			if got := sched.MaxLateness(g, res); math.Abs(got-want.maxLateness) > 1e-5 {
				t.Errorf("max lateness = %v, want %v", got, want.maxLateness)
			}
			pcfg := cfg
			pcfg.Preemptive = true
			pre, err := Schedule(g, sys, res, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := pre.MaxLateness(g, res); math.Abs(got-want.preemptLateness) > 1e-5 {
				t.Errorf("preemptive max lateness = %v, want %v", got, want.preemptLateness)
			}
			if err := ValidateSchedule(g, sys, res, sched, cfg); err != nil {
				t.Errorf("validate: %v", err)
			}
			if err := ValidateSchedule(g, sys, res, pre, pcfg); err != nil {
				t.Errorf("validate preemptive: %v", err)
			}
		})
	}
}

// TestGoldenNORMBindsAtMinLaxity documents a structural identity visible
// in the golden run: under the time-driven model NORM's maximum lateness
// equals minus its minimum laxity — the subtask with the smallest window
// slack (a short subtask, NORM's known weakness) binds without suffering
// any contention delay at all.
func TestGoldenNORMBindsAtMinLaxity(t *testing.T) {
	src := NewRandomSource(1997)
	g, err := RandomGraph(DefaultWorkload(MDET), src.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Distribute(g, sys, NORM(), CCNE())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Schedule(g, sys, res, SchedulerConfig{RespectRelease: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sched.MaxLateness(g, res)+res.MinLaxity(g)) > 1e-6 {
		t.Errorf("NORM max lateness %v != -min laxity %v",
			sched.MaxLateness(g, res), res.MinLaxity(g))
	}
}
