package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// chaosCfg is a reduced sweep for the chaos tests: small enough to run many
// fault configurations, large enough that fault rolls hit several units.
func chaosCfg() Config {
	cfg := Default(generator.MDET)
	cfg.Graphs = 8
	cfg.Sizes = []int{2, 5}
	return cfg
}

func chaosAssigners() []Assigner {
	return []Assigner{
		Slicing(core.ADAPT(1.25), core.CCNE()),
		Slicing(core.PURE(), core.CCNE()),
	}
}

// TestChaosByteIdenticalMixedFaults is the headline property of the
// fault-tolerant run layer: a run surviving injected panics, hangs and
// transient errors at double-digit rates produces tables byte-identical to
// a fault-free run, because every retry re-derives its values from the same
// immutable inputs.
func TestChaosByteIdenticalMixedFaults(t *testing.T) {
	cfg := chaosCfg()
	asg := chaosAssigners()
	want, err := cfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	fcfg := cfg
	fcfg.Metrics = rec
	plan := &FaultPlan{
		PanicRate: 0.12, HangRate: 0.12, ErrorRate: 0.12,
		HangDuration: 10 * time.Millisecond,
	}
	// Rolls are a pure function of (seed, unit, attempt): pick a seed whose
	// first attempts actually inject something, so the test never passes
	// vacuously on a fault-free roll sequence.
	for seed := uint64(1); ; seed++ {
		plan.Seed = seed
		hits := 0
		for gi := 0; gi < cfg.Graphs; gi++ {
			if plan.roll(gi, 1) < plan.PanicRate+plan.HangRate+plan.ErrorRate {
				hits++
			}
		}
		if hits >= 2 {
			break
		}
	}
	fcfg.Faults = plan
	fcfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	got, err := fcfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("chaos table differs from fault-free run:\n--- fault-free ---\n%s\n--- chaos ---\n%s",
			want.String(), got.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("chaos table raw values differ from fault-free run")
	}
	if rec.Snapshot().FaultsInjected == 0 {
		t.Error("no faults injected at 36% total rate over 8 units")
	}
}

// TestChaosAllPanics drives every unit through the panic path: with
// PanicRate=1 and the default MaxFaultyAttempts=2, attempts 1 and 2 of every
// unit panic and attempt 3 succeeds — so the run recovers exactly 2 panics
// and spends exactly 2 retries per unit, and the table is still identical.
func TestChaosAllPanics(t *testing.T) {
	cfg := chaosCfg()
	asg := chaosAssigners()
	want, err := cfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	fcfg := cfg
	fcfg.Metrics = rec
	fcfg.Faults = &FaultPlan{Seed: 1, PanicRate: 1}
	fcfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	got, err := fcfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("all-panic table differs from fault-free run")
	}
	snap := rec.Snapshot()
	wantN := int64(2 * cfg.Graphs)
	if snap.UnitPanics != wantN {
		t.Errorf("UnitPanics = %d, want %d (2 faulty attempts × %d units)", snap.UnitPanics, wantN, cfg.Graphs)
	}
	if snap.UnitRetries != wantN {
		t.Errorf("UnitRetries = %d, want %d", snap.UnitRetries, wantN)
	}
	if snap.FaultsInjected != wantN {
		t.Errorf("FaultsInjected = %d, want %d", snap.FaultsInjected, wantN)
	}
}

// TestChaosAllTransientErrors is the same convergence property through the
// transient-error path.
func TestChaosAllTransientErrors(t *testing.T) {
	cfg := chaosCfg()
	asg := chaosAssigners()
	want, err := cfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	fcfg := cfg
	fcfg.Metrics = rec
	fcfg.Faults = &FaultPlan{Seed: 1, ErrorRate: 1}
	fcfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	got, err := fcfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("all-transient table differs from fault-free run")
	}
	if snap := rec.Snapshot(); snap.UnitRetries != int64(2*cfg.Graphs) {
		t.Errorf("UnitRetries = %d, want %d", snap.UnitRetries, 2*cfg.Graphs)
	}
}

// TestChaosHangsHitUnitDeadline drives every unit through the
// hang-then-timeout path: an injected hang far longer than UnitTimeout is
// abandoned by the per-unit deadline and retried; the clean third attempt
// converges on the fault-free table.
func TestChaosHangsHitUnitDeadline(t *testing.T) {
	cfg := chaosCfg()
	cfg.Graphs = 3 // two timeouts per unit: keep the serial worst-case short
	asg := chaosAssigners()
	want, err := cfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New()
	fcfg := cfg
	fcfg.Metrics = rec
	fcfg.UnitTimeout = 50 * time.Millisecond
	fcfg.Faults = &FaultPlan{Seed: 1, HangRate: 1, HangDuration: 10 * time.Second}
	fcfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	got, err := fcfg.Run("chaos", asg...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("hang-timeout table differs from fault-free run")
	}
	if snap := rec.Snapshot(); snap.UnitTimeouts != int64(2*cfg.Graphs) {
		t.Errorf("UnitTimeouts = %d, want %d", snap.UnitTimeouts, 2*cfg.Graphs)
	}
}

// TestChaosExhaustedRetriesFailWithCellIdentity checks the failure shape
// when retries cannot converge: a retry policy with fewer attempts than
// MaxFaultyAttempts exhausts on a still-faulty attempt, and the resulting
// UnitError names the unit and the attempt count.
func TestChaosExhaustedRetriesFailWithCellIdentity(t *testing.T) {
	cfg := chaosCfg()
	cfg.Graphs = 2
	cfg.Faults = &FaultPlan{Seed: 1, PanicRate: 1, MaxFaultyAttempts: 5}
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	_, err := cfg.Run("chaos", chaosAssigners()...)
	if err == nil {
		t.Fatal("run with inescapable panics succeeded")
	}
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("error is not a *UnitError: %v", err)
	}
	if ue.Attempts != 2 {
		t.Errorf("UnitError.Attempts = %d, want 2", ue.Attempts)
	}
	var pe *PanicError
	if !errors.As(ue.Err, &pe) {
		t.Errorf("UnitError does not wrap the recovered panic: %v", ue.Err)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error does not report the attempt count: %v", err)
	}
}

// TestDomainErrorsAreNotRetried: a permanent (non-transient, non-panic)
// assigner error must fail fast on the first attempt, exactly as before the
// fault-tolerant layer existed.
func TestDomainErrorsAreNotRetried(t *testing.T) {
	cfg := chaosCfg()
	cfg.Graphs = 1
	cfg.Sizes = []int{2}
	fa := &countingFailAssigner{err: errors.New("infeasible workload")}
	_, err := cfg.Run("domain", fa)
	if err == nil {
		t.Fatal("failing assigner succeeded")
	}
	if got := fa.calls.Load(); got != 1 {
		t.Errorf("permanent error retried: %d Assign calls, want 1", got)
	}
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("error is not a *UnitError: %v", err)
	}
	if ue.Label != "FAIL" || ue.Size != 2 {
		t.Errorf("UnitError cell = (%q, %d), want (\"FAIL\", 2)", ue.Label, ue.Size)
	}
}

// TestAssignerDeadlineIsNotRetried: an assigner returning
// context.DeadlineExceeded from a deadline of its own, while the run's
// context is alive, is not retried: only the engine's own UnitTimeout
// (reported as ErrUnitTimeout) is. Nor is it a cancellation of the run:
// it fails as a *UnitError naming the cell, not as a *PartialError. The
// serving layer's wider Retryable predicate still covers the bare
// deadline its attempts see.
func TestAssignerDeadlineIsNotRetried(t *testing.T) {
	cfg := chaosCfg()
	cfg.Graphs = 1
	cfg.Sizes = []int{2}
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	deadline := fmt.Errorf("solver: %w", context.DeadlineExceeded)
	fa := &countingFailAssigner{err: deadline}
	_, err := cfg.Run("own-deadline", fa)
	if err == nil {
		t.Fatal("failing assigner succeeded")
	}
	if got := fa.calls.Load(); got != 1 {
		t.Errorf("assigner deadline retried: %d Assign calls, want 1", got)
	}
	var pe *PartialError
	if errors.As(err, &pe) {
		t.Errorf("assigner deadline reported as an interrupted run: %v", err)
	}
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("error is not a *UnitError: %v", err)
	}
	if ue.Label != "FAIL" || ue.Size != 2 {
		t.Errorf("UnitError cell = (%q, %d), want (\"FAIL\", 2)", ue.Label, ue.Size)
	}
	if retryable(deadline) || !Retryable(deadline) {
		t.Errorf("retryable = %v, Retryable = %v; want false, true", retryable(deadline), Retryable(deadline))
	}
}

// TestTransientAssignerErrorHealsViaRetry: an assigner failing transiently
// on its first attempt converges, and the sweep succeeds.
func TestTransientAssignerErrorHealsViaRetry(t *testing.T) {
	cfg := chaosCfg()
	cfg.Graphs = 1
	cfg.Sizes = []int{2}
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	fa := &countingFailAssigner{err: Transient(errors.New("flaky")), failFirst: 1}
	table, err := cfg.Run("transient", fa)
	if err != nil {
		t.Fatal(err)
	}
	if fa.calls.Load() != 2 {
		t.Errorf("Assign calls = %d, want 2 (one failure, one success)", fa.calls.Load())
	}
	if table.Curves[0].Points[0].Failed != "" {
		t.Error("healed run produced a FAILED cell")
	}
}

// countingFailAssigner fails its first failFirst Assign calls with err (all
// calls when failFirst is 0), then delegates to a real slicing assigner.
type countingFailAssigner struct {
	err       error
	failFirst int32
	calls     atomic.Int32
}

func (f *countingFailAssigner) Label() string { return "FAIL" }

func (f *countingFailAssigner) Fingerprint(dst []float64, _ *taskgraph.Graph, sys *platform.System, _ *core.Scratch) ([]float64, error) {
	return perSizeFP(dst, sys), nil // every size calls Assign
}

func (f *countingFailAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	n := f.calls.Add(1)
	if f.failFirst == 0 || n <= f.failFirst {
		return nil, f.err
	}
	return Slicing(core.PURE(), core.CCNE()).Assign(ctx, g, sys, recycle, sc)
}

// hookAssigner calls hook after every Assign of the assigner it wraps: a
// way into the middle of a sweep, once per distribution computed.
type hookAssigner struct {
	Assigner
	hook func()
}

func (h hookAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	res, err := h.Assigner.Assign(ctx, g, sys, recycle, sc)
	h.hook()
	return res, err
}

// TestCancellationYieldsPartialTable: cancelling the run context mid-sweep
// drains gracefully and returns the partial table (every cell FAILED, since
// a cell's value is the batch average) plus a *PartialError.
func TestCancellationYieldsPartialTable(t *testing.T) {
	cfg := chaosCfg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	asg := chaosAssigners()
	asg[0] = hookAssigner{asg[0], cancel} // stop the run from inside the first cell
	table, err := cfg.RunContext(ctx, "partial", asg...)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PartialError: %v", err)
	}
	if pe.Reason != "interrupted" {
		t.Errorf("Reason = %q, want \"interrupted\"", pe.Reason)
	}
	if want := len(asg) * len(cfg.Sizes); pe.Failed != want {
		t.Errorf("Failed = %d, want %d", pe.Failed, want)
	}
	if table == nil {
		t.Fatal("no partial table returned")
	}
	for _, c := range table.Curves {
		for _, p := range c.Points {
			if p.Failed != "interrupted" {
				t.Fatalf("cell (%s, %d) not marked FAILED: %+v", c.Label, p.Size, p)
			}
		}
	}
	if s := table.String(); !strings.Contains(s, "FAILED(interrupted)") {
		t.Errorf("rendered table missing FAILED marker:\n%s", s)
	}
}

// TestBudgetYieldsPartialTable: exhausting the per-table budget stops the
// run with reason "budget exceeded" and a DeadlineExceeded cause, while the
// caller's own context stays live.
func TestBudgetYieldsPartialTable(t *testing.T) {
	cfg := chaosCfg()
	cfg.Workers = 2
	cfg.Budget = 60 * time.Millisecond
	asg := chaosAssigners()
	asg[0] = hookAssigner{asg[0], func() { time.Sleep(40 * time.Millisecond) }}
	_, err := cfg.Run("budget", asg...)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PartialError: %v", err)
	}
	if pe.Reason != "budget exceeded" {
		t.Errorf("Reason = %q, want \"budget exceeded\"", pe.Reason)
	}
	if !errors.Is(pe.Err, context.DeadlineExceeded) {
		t.Errorf("cause = %v, want DeadlineExceeded", pe.Err)
	}
}

// TestValidateSampleCatchesInvalidSchedules: the opt-in validation hook must
// fail the sweep permanently (no retries) when the checker rejects a
// schedule. A correct pipeline passes at any sampling rate.
func TestValidateSamplePassesOnCorrectPipeline(t *testing.T) {
	cfg := chaosCfg()
	cfg.ValidateSample = 1 // validate every cell
	want, err := chaosCfg().Run("validate", chaosAssigners()...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.Run("validate", chaosAssigners()...)
	if err != nil {
		t.Fatalf("validated sweep failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("validation changed the table")
	}
}

// TestFaultPlanDeterministicRolls: injection is a pure function of
// (seed, unit, attempt), so two chaos runs with the same plan inject the
// same faults.
func TestFaultPlanDeterministicRolls(t *testing.T) {
	p := &FaultPlan{Seed: 42, PanicRate: 0.3}
	for gi := 0; gi < 50; gi++ {
		for k := 1; k <= 3; k++ {
			if p.roll(gi, k) != p.roll(gi, k) {
				t.Fatalf("roll(%d,%d) not deterministic", gi, k)
			}
		}
	}
	q := &FaultPlan{Seed: 43, PanicRate: 0.3}
	same := 0
	for gi := 0; gi < 50; gi++ {
		if (p.roll(gi, 1) < 0.3) == (q.roll(gi, 1) < 0.3) {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical fault patterns")
	}
}

// TestSubmitCancelledDoesNotDeadlock is the submit-slot regression test:
// with every worker busy and the queue full, a submit whose run is already
// cancelled must return false immediately — never enqueue, never block —
// and Close must still complete once the pool drains.
func TestSubmitCancelledDoesNotDeadlock(t *testing.T) {
	orc := NewOrchestrator(1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	ok := orc.submit(poolJob{fn: func(*workerBox) {
		close(started)
		<-block
		wg.Done()
	}}, nil)
	if !ok {
		t.Fatal("first submit rejected with an idle pool")
	}
	<-started

	cancelled := make(chan struct{})
	close(cancelled)
	done := make(chan bool, 1)
	go func() {
		done <- orc.submit(poolJob{fn: func(*workerBox) {
			t.Error("cancelled job ran")
		}}, cancelled)
	}()
	select {
	case enq := <-done:
		if enq {
			t.Fatal("cancelled submit reported the job enqueued")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled submit blocked on a full queue")
	}

	close(block)
	wg.Wait()
	closed := make(chan struct{})
	go func() {
		orc.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked after a cancelled submit")
	}
}

// TestAssignmentErrorReleasesCacheSlot is the singleflight-leak regression
// test: an Assign that errors must not pin a cache slot (the key is deleted
// on the way out), the error must not be cached, and a later call must
// compute afresh.
func TestAssignmentErrorReleasesCacheSlot(t *testing.T) {
	orc := NewOrchestrator(1)
	defer orc.Close()
	g := testGraph(t)
	sys, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	fa := &countingFailAssigner{err: errors.New("boom")}
	w := newPoolWorker()

	for call := 1; call <= 2; call++ {
		_, shared, err := orc.assignment(context.Background(), g, sys, fa, "FAIL", nil, nil, w)
		if err == nil {
			t.Fatalf("call %d: erroring assignment succeeded", call)
		}
		if shared {
			t.Fatalf("call %d: errored result reported as shared cache storage", call)
		}
		n := orc.assignEntryCount()
		if n != 0 {
			t.Fatalf("call %d: errored assignment pinned %d cache slots", call, n)
		}
	}
	if got := fa.calls.Load(); got != 2 {
		t.Errorf("Assign calls = %d, want 2 (errors must not be served from cache)", got)
	}

	// A successful assignment afterwards occupies exactly one slot.
	ok := Slicing(core.PURE(), core.CCNE())
	fp, _ := ok.Fingerprint(nil, g, sys, nil)
	if _, shared, err := orc.assignment(context.Background(), g, sys, ok, ok.Label(), fp, nil, w); err != nil || !shared {
		t.Fatalf("successful assignment: shared=%v err=%v", shared, err)
	}
	n := orc.assignEntryCount()
	if n != 1 {
		t.Errorf("successful assignment occupies %d slots, want 1", n)
	}
}

// TestAssignmentPanicReleasesCacheSlot: a panicking Assign releases its
// singleflight slot on the way out, so a later attempt computes afresh
// instead of deadlocking on a never-closed ready channel.
func TestAssignmentPanicReleasesCacheSlot(t *testing.T) {
	orc := NewOrchestrator(1)
	defer orc.Close()
	g := testGraph(t)
	sys, err := platform.New(2)
	if err != nil {
		t.Fatal(err)
	}
	w := newPoolWorker()
	pa := &panicOnceAssigner{}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		orc.assignment(context.Background(), g, sys, pa, "PANIC", nil, nil, w)
	}()
	n := orc.assignEntryCount()
	if n != 0 {
		t.Fatalf("panicking assignment pinned %d cache slots", n)
	}
	if _, _, err := orc.assignment(context.Background(), g, sys, pa, "PANIC", nil, nil, w); err != nil {
		t.Fatalf("second attempt after the panic failed: %v", err)
	}
}

// panicOnceAssigner panics on its first Assign and succeeds afterwards.
type panicOnceAssigner struct{ calls atomic.Int32 }

func (p *panicOnceAssigner) Label() string { return "PANIC" }

func (p *panicOnceAssigner) Fingerprint(dst []float64, _ *taskgraph.Graph, _ *platform.System, _ *core.Scratch) ([]float64, error) {
	return dst[:0], nil
}

func (p *panicOnceAssigner) Assign(ctx context.Context, g *taskgraph.Graph, sys *platform.System,
	recycle *core.Result, sc *core.Scratch) (*core.Result, error) {
	if p.calls.Add(1) == 1 {
		panic("assigner bug")
	}
	return Slicing(core.PURE(), core.CCNE()).Assign(ctx, g, sys, recycle, sc)
}

// testGraph generates one deterministic workload graph.
func testGraph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzParseFaults checks the -faults parser's contract on arbitrary specs:
// either an error, or a plan whose rates lie in [0,1] and whose hang
// duration and attempt bound are non-negative.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"panic=0.1,hang=0.2,err=0.3,seed=9,hangms=50,maxfaulty=3",
		"panic=NaN", "err=nan", "hang=Inf", "hangms=9223372036855", "seed=18446744073709551615", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaults(spec)
		if err != nil {
			return
		}
		for _, r := range []float64{plan.PanicRate, plan.HangRate, plan.ErrorRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseFaults(%q): rate %v outside [0,1]", spec, r)
			}
		}
		if plan.HangDuration < 0 || plan.MaxFaultyAttempts < 0 {
			t.Fatalf("ParseFaults(%q): negative bound in %+v", spec, plan)
		}
	})
}
