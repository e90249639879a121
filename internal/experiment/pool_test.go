package experiment

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/metrics"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// TestWorkerBoxBoundary pins the pool's one attempt boundary, which both
// sweep units and Orchestrator.Do run on: a success keeps the worker, a
// panic becomes a *PanicError on a fresh worker, a detached attempt is
// abandoned the moment its context settles, and an inline attempt always
// returns fn's own error.
func TestWorkerBoxBoundary(t *testing.T) {
	errOwn := errors.New("fn's own error")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		detached bool
		ctx      func() (context.Context, context.CancelFunc)
		fn       func(release <-chan struct{}) error
		want     func(error) bool
		fresh    bool
	}{
		{
			name: "inline success", ctx: background,
			fn:   func(<-chan struct{}) error { return nil },
			want: func(err error) bool { return err == nil },
		},
		{
			name: "detached success", detached: true, ctx: background,
			fn:   func(<-chan struct{}) error { return nil },
			want: func(err error) bool { return err == nil },
		},
		{
			name: "inline panic", ctx: background,
			fn:    func(<-chan struct{}) error { panic("boom") },
			want:  isPanicError,
			fresh: true,
		},
		{
			name: "detached panic", detached: true, ctx: background,
			fn:    func(<-chan struct{}) error { panic("boom") },
			want:  isPanicError,
			fresh: true,
		},
		{
			name: "detached abandon", detached: true,
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 10*time.Millisecond)
			},
			// Blocks until the test releases it, after run has returned.
			fn:    func(release <-chan struct{}) error { <-release; return nil },
			want:  func(err error) bool { return err == context.DeadlineExceeded },
			fresh: true,
		},
		{
			name: "inline cancelled", ctx: func() (context.Context, context.CancelFunc) { return cancelled, func() {} },
			fn:   func(<-chan struct{}) error { return errOwn },
			want: func(err error) bool { return err == errOwn },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := c.ctx()
			defer cancel()
			release := make(chan struct{})
			defer close(release)
			box := &workerBox{w: newPoolWorker()}
			w0 := box.w
			var ran *poolWorker
			t0 := time.Now()
			err := box.run(ctx, c.detached, func(w *poolWorker) error {
				ran = w
				return c.fn(release)
			})
			if !c.want(err) {
				t.Fatalf("run returned %v", err)
			}
			if d := time.Since(t0); d > 5*time.Second {
				t.Errorf("run took %v", d)
			}
			if c.fresh {
				if box.w == w0 || box.w == nil {
					t.Error("worker kept after a panic or an abandonment")
				}
			} else {
				if box.w != w0 {
					t.Error("worker replaced after a clean attempt")
				}
				if ran != w0 {
					t.Error("fn did not run on the box's worker")
				}
			}
		})
	}
}

func background() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

func isPanicError(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) && pe.Value == "boom" && len(pe.Stack) > 0
}

// poolWorkerGoroutines counts the goroutines running an Orchestrator's
// worker loop.
func poolWorkerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*Orchestrator).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledPoolWorkers waits briefly for exiting workers to leave the
// goroutine dump, then counts the rest.
func settledPoolWorkers(want int) int {
	n := poolWorkerGoroutines()
	for i := 0; n != want && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n = poolWorkerGoroutines()
	}
	return n
}

// TestRunWithoutOrchestratorOwnsItsPool: a run with a nil Orchestrator
// starts one of Workers workers, records that size, and closes it on every
// return path — a success and an early generation failure alike. Its
// caches could serve no other table, so it neither reads nor fills them.
func TestRunWithoutOrchestratorOwnsItsPool(t *testing.T) {
	before := poolWorkerGoroutines()
	cfg := orcCfg()
	cfg.Workers = 3
	rec := metrics.New()
	cfg.Metrics = rec
	if _, err := cfg.Run("own pool", orcAssigners()...); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.PoolWorkers != 3 {
		t.Errorf("poolWorkers = %d, want 3", snap.PoolWorkers)
	}
	if n := snap.BatchHits + snap.BatchMisses + snap.CrossHits + snap.CrossMisses; n != 0 {
		t.Errorf("run-owned orchestrator: %d batch/cross-table cache lookups, want 0", n)
	}
	if n := settledPoolWorkers(before); n != before {
		t.Errorf("%d pool workers running after a successful run, want %d", n, before)
	}

	cfg.Custom = func(*rng.Source) (*taskgraph.Graph, error) { return nil, errors.New("no graph") }
	if _, err := cfg.Run("own pool, failing batch", orcAssigners()...); err == nil {
		t.Fatal("failing Custom generator: run succeeded")
	}
	if n := settledPoolWorkers(before); n != before {
		t.Errorf("%d pool workers running after a failed run, want %d", n, before)
	}
}
