package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/platform"
)

// blockingMetric delegates to PURE but parks the first Ratio evaluation on
// a gate, holding the distribution DP mid-round until the test releases
// it. Subsequent calls (including the whole DP after release) run
// normally, so the only perturbation is the one deterministic stall.
type blockingMetric struct {
	core.Metric
	once    sync.Once
	started chan struct{} // closed when the DP reaches the gate
	release chan struct{} // closed by the test to let the DP continue
}

func newBlockingMetric() *blockingMetric {
	return &blockingMetric{
		Metric:  core.PURE(),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (m *blockingMetric) Ratio(d, sumC float64, n int) float64 {
	m.once.Do(func() {
		close(m.started)
		<-m.release
	})
	return m.Metric.Ratio(d, sumC, n)
}

// TestDeadlineMidDPNeverPublishes is the deadline-propagation contract at
// the cache boundary: an assignment whose context expires mid-DP (here: a
// singleflight owner stalled inside the slicing loop past its deadline)
// must abort with the deadline cause at the next round boundary and leave
// the cross-table cache empty — the abandoned owner's deferred release
// unpins the slot instead of publishing a result its unit already
// abandoned. A later healthy call must compute afresh and publish.
func TestDeadlineMidDPNeverPublishes(t *testing.T) {
	orc := NewOrchestrator(2)
	defer orc.Close()
	g := testGraph(t)
	sys, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockingMetric()
	asg := Slicing(bm, core.CCNE())
	fp, err := asg.Fingerprint(nil, g, sys, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		w := newPoolWorker()
		_, _, err := orc.assignment(ctx, g, sys, asg, asg.Label(), fp, nil, w)
		errc <- err
	}()
	<-bm.started
	<-ctx.Done() // the deadline fires while the DP is parked mid-round
	close(bm.release)
	select {
	case err = <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("assignment did not abort after its deadline expired mid-DP")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-DP deadline: got err %v, want DeadlineExceeded", err)
	}
	if n := orc.assignEntryCount(); n != 0 {
		t.Fatalf("deadline-dead assignment published %d cache slots, want 0", n)
	}

	// A healthy retry computes afresh, publishes, and matches a plain run.
	clean := Slicing(core.PURE(), core.CCNE())
	fp2, _ := clean.Fingerprint(nil, g, sys, nil)
	res, shared, err := orc.assignment(context.Background(), g, sys, clean, clean.Label(), fp2, nil, newPoolWorker())
	if err != nil || !shared {
		t.Fatalf("healthy retry: shared=%v err=%v", shared, err)
	}
	want, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCNE()}.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Relative, want.Relative) || !reflect.DeepEqual(res.Release, want.Release) {
		t.Fatal("post-abort assignment differs from a plain run")
	}
	if n := orc.assignEntryCount(); n != 1 {
		t.Fatalf("healthy assignment occupies %d slots, want 1", n)
	}
}

// TestUnitTimeoutMidDPReturnsUnitError is the same contract one layer up:
// a unit whose per-unit deadline expires while its DP is parked mid-round
// must surface as a UnitError wrapping ErrUnitTimeout (retries disabled
// here so the cause is the unit's verdict), and the shared caches must
// stay empty once the abandoned attempt unwinds.
func TestUnitTimeoutMidDPReturnsUnitError(t *testing.T) {
	orc := NewOrchestrator(2)
	defer orc.Close()
	bm := newBlockingMetric()

	cfg := chaosCfg()
	cfg.Graphs = 1
	cfg.Sizes = []int{2}
	cfg.Orchestrator = orc
	cfg.UnitTimeout = 20 * time.Millisecond
	cfg.Retry = RetryPolicy{MaxAttempts: 1}

	done := make(chan error, 1)
	go func() {
		_, err := cfg.Run("deadline", Slicing(bm, core.CCNE()))
		done <- err
	}()
	<-bm.started
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not abandon the stalled unit")
	}
	// Release the parked DP only after the watchdog has already abandoned
	// the attempt: the goroutine resumes, hits the next round boundary,
	// sees its expired context and unwinds without publishing.
	close(bm.release)

	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("run error = %v, want a *UnitError", err)
	}
	if !errors.Is(ue.Err, ErrUnitTimeout) {
		t.Fatalf("UnitError cause = %v, want ErrUnitTimeout", ue.Err)
	}
	if ue.Attempts != 1 {
		t.Errorf("UnitError attempts = %d, want 1", ue.Attempts)
	}

	// The abandoned goroutine unwinds asynchronously; poll until its
	// deferred release has run, then assert nothing was published.
	deadline := time.Now().Add(5 * time.Second)
	for orc.assignEntryCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := orc.assignEntryCount(); n != 0 {
		t.Fatalf("abandoned unit left %d cache slots, want 0", n)
	}
}
