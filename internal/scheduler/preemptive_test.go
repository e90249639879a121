package scheduler

import (
	"testing"
	"testing/quick"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func TestPreemptiveSimpleChain(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 20)
	b.Connect(a, c, 5)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	// No contention: identical to the non-preemptive outcome.
	if !approx(sched.Finish[a], 10) || !approx(sched.Finish[c], 30) {
		t.Fatalf("finishes %v, %v, want 10, 30", sched.Finish[a], sched.Finish[c])
	}
	if sched.Preemptions(g) != 0 {
		t.Errorf("chain run preempted %d times", sched.Preemptions(g))
	}
	if err := Validate(g, s, res, sched, Config{Preemptive: true}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPreemptionHappens(t *testing.T) {
	// A long loose task starts first (it is alone), then an urgent task is
	// released mid-flight: preemptive EDF must interrupt the long task.
	b := taskgraph.NewBuilder()
	long := b.AddSubtask("long", 100)
	urgent := b.AddSubtask("urgent", 10)
	b.SetEndToEnd(long, 1000)
	b.SetEndToEnd(urgent, 60)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{long: 1000, urgent: 60})
	res.Release[urgent] = 30 // arrives while long is running

	cfg := Config{RespectRelease: true, Preemptive: true}
	sched, err := Run(g, s, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sched.Start[long], 0) {
		t.Fatalf("long starts %v, want 0", sched.Start[long])
	}
	if !approx(sched.Start[urgent], 30) || !approx(sched.Finish[urgent], 40) {
		t.Fatalf("urgent runs [%v,%v], want [30,40] (preempting long)",
			sched.Start[urgent], sched.Finish[urgent])
	}
	if !approx(sched.Finish[long], 110) {
		t.Fatalf("long finishes %v, want 110 (100 exec + 10 preempted)", sched.Finish[long])
	}
	if sched.Preemptions(g) != 1 {
		t.Fatalf("preemptions = %d, want 1", sched.Preemptions(g))
	}
	if err := Validate(g, s, res, sched, cfg); err != nil {
		t.Errorf("Validate: %v", err)
	}

	// The non-preemptive time-driven plan must leave the processor idle
	// until urgent's release (it cannot start long and interrupt it), so
	// long finishes later than under preemption.
	nonp, err := Run(g, s, res, Config{RespectRelease: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(nonp.Finish[long], 140) {
		t.Fatalf("non-preemptive long finishes %v, want 140 (urgent first, then long)", nonp.Finish[long])
	}
	if sched.Finish[long] >= nonp.Finish[long] {
		t.Errorf("preemption did not help the long task: %v vs %v",
			sched.Finish[long], nonp.Finish[long])
	}
}

func TestPreemptiveRespectsMessages(t *testing.T) {
	b := taskgraph.NewBuilder()
	u := b.AddSubtask("u", 10)
	v := b.AddSubtask("v", 10)
	b.Connect(u, v, 7)
	b.Pin(u, 0)
	b.Pin(v, 1)
	b.SetEndToEnd(v, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sched.Start[v], 17) {
		t.Fatalf("v starts %v, want 17 (cross-processor message)", sched.Start[v])
	}
	if err := Validate(g, s, res, sched, Config{Preemptive: true}); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// Property: preemptive schedules of random workloads validate, and every
// subtask completes.
func TestPropertyPreemptiveValid(t *testing.T) {
	wcfg := generator.Default(generator.HDET)
	f := func(seed uint64, respect bool) bool {
		g, err := generator.Random(wcfg, rng.New(seed))
		if err != nil {
			return false
		}
		s, err := platform.New(4)
		if err != nil {
			return false
		}
		res, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}.Distribute(g, s)
		if err != nil {
			return false
		}
		cfg := Config{RespectRelease: respect, Preemptive: true}
		sched, err := Run(g, s, res, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(sched.Order) != g.NumSubtasks() {
			t.Logf("seed %d: %d of %d completed", seed, len(sched.Order), g.NumSubtasks())
			return false
		}
		if err := Validate(g, s, res, sched, cfg); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptiveNeverWorseMaxLatenessOnOneProc(t *testing.T) {
	// On a single processor with dynamic dispatch, preemptive EDF is
	// optimal for max lateness among work-conserving policies; it should
	// not lose to the non-preemptive run.
	wcfg := generator.Default(generator.MDET)
	src := rng.New(77)
	for i := 0; i < 5; i++ {
		g, err := generator.Random(wcfg, src.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		s := sys(t, 1)
		res := distributed(t, g, s)
		nonp, err := Run(g, s, res, Config{})
		if err != nil {
			t.Fatal(err)
		}
		pre, err := Run(g, s, res, Config{Preemptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if pre.MaxLateness(g, res) > nonp.MaxLateness(g, res)+1e-6 {
			t.Errorf("graph %d: preemptive max lateness %v worse than non-preemptive %v",
				i, pre.MaxLateness(g, res), nonp.MaxLateness(g, res))
		}
	}
}

func TestPreemptiveGanttUsesSegments(t *testing.T) {
	b := taskgraph.NewBuilder()
	long := b.AddSubtask("long", 100)
	urgent := b.AddSubtask("urgent", 10)
	b.SetEndToEnd(long, 1000)
	b.SetEndToEnd(urgent, 60)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := manualResult(g, map[taskgraph.NodeID]float64{long: 1000, urgent: 60})
	res.Release[urgent] = 30
	sched, err := Run(g, s, res, Config{RespectRelease: true, Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(g, s, sched, 44)
	// 'a' (long) must appear on both sides of 'b' (urgent).
	first := indexByteT(out, 'b')
	if first < 0 {
		t.Fatalf("urgent not drawn:\n%s", out)
	}
	var before, after bool
	for i, ch := range []byte(out) {
		if ch == 'a' {
			if i < first {
				before = true
			} else {
				after = true
			}
		}
	}
	if !before || !after {
		t.Errorf("preempted task not split around the urgent one:\n%s", out)
	}
}

func indexByteT(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func TestPreemptionsZeroWithoutSegments(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	b.SetEndToEnd(x, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 1)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{}) // non-preemptive: no segments
	if err != nil {
		t.Fatal(err)
	}
	if sched.Preemptions(g) != 0 {
		t.Fatalf("segment-free schedule reports %d preemptions", sched.Preemptions(g))
	}
}

func TestValidatePreemptiveCatchesCorruption(t *testing.T) {
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	c := b.AddSubtask("c", 10)
	b.Connect(a, c, 5)
	b.SetEndToEnd(c, 100)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	res := distributed(t, g, s)
	sched, err := Run(g, s, res, Config{Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, s, res, sched, Config{Preemptive: true}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Missing segments.
	bad := *sched
	bad.Segments = nil
	if err := Validate(g, s, res, &bad, Config{Preemptive: true}); err == nil {
		t.Error("missing segments not caught")
	}
	// Truncated execution.
	bad2 := *sched
	bad2.Segments = append([]Segment(nil), sched.Segments...)
	bad2.Segments[0].End = bad2.Segments[0].Start + 1
	if err := Validate(g, s, res, &bad2, Config{Preemptive: true}); err == nil {
		t.Error("short execution not caught")
	}
	// A gap inside the execution: first start and last end still match,
	// but the segments sum to less than the execution time.
	gap := *sched
	first := sched.Segments[0]
	gap.Segments = append([]Segment{
		{Node: first.Node, Proc: first.Proc, Start: first.Start, End: first.Start + 4},
		{Node: first.Node, Proc: first.Proc, Start: first.Start + 6, End: first.End},
	}, sched.Segments[1:]...)
	if err := Validate(g, s, res, &gap, Config{Preemptive: true}); err == nil {
		t.Error("execution gap not caught")
	}
	// Invalid processor.
	bad3 := *sched
	bad3.Segments = append([]Segment(nil), sched.Segments...)
	bad3.Segments[0].Proc = 99
	if err := Validate(g, s, res, &bad3, Config{Preemptive: true}); err == nil {
		t.Error("invalid processor not caught")
	}
}
