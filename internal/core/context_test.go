package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

// chains builds k disjoint two-node chains so the distributor needs k
// slicing rounds (one critical path per chain).
func chains(t *testing.T, k int) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder()
	for i := 0; i < k; i++ {
		a := b.AddSubtask("a", 10)
		c := b.AddSubtask("c", 10)
		b.Connect(a, c, 1)
		b.SetEndToEnd(c, float64(40+10*i))
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDistributeContextPreExpired(t *testing.T) {
	g := chains(t, 2)
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	d := Distributor{Metric: PURE(), Estimator: CCNE()}
	if _, err := d.DistributeScratchContext(ctx, g, sys, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pre-expired context: got err %v, want DeadlineExceeded", err)
	}
	if _, err := d.DistributeScratchContext(ctx, g, sys, nil, NewScratch()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pre-expired context (scratch): got err %v, want DeadlineExceeded", err)
	}
}

// cancellingMetric delegates to an inner metric but cancels a context the
// first time a path ratio is evaluated, so the cancellation is observed at
// the next slicing-round boundary — a deterministic mid-run abort.
type cancellingMetric struct {
	Metric
	cancel context.CancelFunc
}

func (m *cancellingMetric) Ratio(d, sumC float64, n int) float64 {
	m.cancel()
	return m.Metric.Ratio(d, sumC, n)
}

func TestDistributeContextMidRunCancel(t *testing.T) {
	g := chains(t, 4)
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := Distributor{Metric: &cancellingMetric{Metric: PURE(), cancel: cancel}, Estimator: CCNE()}
	res, err := d.DistributeScratchContext(ctx, g, sys, nil, NewScratch())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got err %v, want Canceled", err)
	}
	if res != nil {
		t.Fatalf("mid-run cancel: got non-nil result")
	}
}

// TestDistributeContextNilAndLiveMatch: a live, never-cancelled context
// must produce the bit-identical result of the context-free entry point,
// and an aborted run must not poison the scratch it ran on.
func TestDistributeContextNilAndLiveMatch(t *testing.T) {
	g := chains(t, 4)
	sys, err := platform.New(4)
	if err != nil {
		t.Fatal(err)
	}
	d := Distributor{Metric: THRES(0.1, 1.0), Estimator: CCAA()}
	want, err := d.Distribute(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.DistributeScratchContext(context.Background(), g, sys, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(want, got); diff != "" {
		t.Fatalf("context run differs from plain run: %s", diff)
	}

	// Abort a run mid-way, then rerun on the same scratch: the answer must
	// still match the cold run.
	sc := NewScratch()
	ctx, cancel := context.WithCancel(context.Background())
	dc := Distributor{Metric: &cancellingMetric{Metric: THRES(0.1, 1.0), cancel: cancel}, Estimator: CCAA()}
	if _, err := dc.DistributeScratchContext(ctx, g, sys, nil, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("abort: got err %v, want Canceled", err)
	}
	got2, err := d.DistributeScratchContext(context.Background(), g, sys, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(want, got2); diff != "" {
		t.Fatalf("run after abort differs from plain run: %s", diff)
	}
}
