package sfcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func intHash(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// eventually polls cond until it holds or five seconds pass.
func eventually(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// waitFor is eventually on the test goroutine, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !eventually(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestDoRunsOnce: 32 concurrent callers of one key run fn once and all
// get its value.
func TestDoRunsOnce(t *testing.T) {
	const callers = 32
	c := New[int, *int](16, intHash)
	var calls atomic.Int32
	val := new(int)
	fn := func(Outcome) (*int, error) {
		calls.Add(1)
		// Hold the slot until every other caller has joined it.
		if !eventually(func() bool { return c.Stats().Hits == callers-1 }) {
			t.Error("timed out waiting for all callers to join")
		}
		return val, nil
	}
	var wg sync.WaitGroup
	got := make([]*int, callers)
	outs := make([]Outcome, callers)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), 7, fn)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i], outs[i] = v, out
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	misses := 0
	for i, v := range got {
		if v != val {
			t.Errorf("caller %d got another value", i)
		}
		if outs[i] == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers report Miss, want 1", misses)
	}
	if st := c.Stats(); st.Hits != callers-1 || st.Misses != 1 {
		t.Errorf("stats %+v, want %d hits and 1 miss", st, callers-1)
	}
}

// TestErrorReleasesSlot: a failed owner caches nothing, its waiter gets
// the error verbatim, and the next caller computes afresh.
func TestErrorReleasesSlot(t *testing.T) {
	c := New[int, int](4, intHash)
	boom := errors.New("boom")
	gate := make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), 1, func(Outcome) (int, error) {
			<-gate
			return 0, boom
		})
		owner <- err
	}()
	waitFor(t, "the owner to claim the key", func() bool { return c.Len() == 1 })
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), 1, nil)
		waiter <- err
	}()
	waitFor(t, "the waiter to join", func() bool { return c.Stats().Hits == 1 })
	close(gate)
	if err := <-owner; err != boom {
		t.Errorf("owner got %v, want its own error", err)
	}
	if err := <-waiter; err != boom {
		t.Errorf("waiter got %v, want the owner's error verbatim", err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("failed owner left %d entries", n)
	}
	v, out, err := c.Do(context.Background(), 1, func(Outcome) (int, error) { return 5, nil })
	if v != 5 || out != Miss || err != nil {
		t.Fatalf("after a failure: %d %v %v, want a fresh Miss", v, out, err)
	}
}

// TestPanicReleasesSlot: a panic reaches the owner, releases the slot and
// gives waiters ErrAbandoned; an owner cancelled by its own context does
// the same for its waiters.
func TestPanicReleasesSlot(t *testing.T) {
	for _, mode := range []string{"panic", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			c := New[int, int](4, intHash)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gate := make(chan struct{})
			owner := make(chan any, 1)
			go func() {
				defer func() {
					if v := recover(); v != nil {
						owner <- v
					}
				}()
				_, _, err := c.Do(ctx, 1, func(Outcome) (int, error) {
					<-gate
					if mode == "panic" {
						panic("owner bug")
					}
					cancel()
					return 0, fmt.Errorf("slicing stopped: %w", ctx.Err())
				})
				owner <- err
			}()
			waitFor(t, "the owner to claim the key", func() bool { return c.Len() == 1 })
			waiter := make(chan error, 1)
			go func() {
				_, _, err := c.Do(context.Background(), 1, nil)
				waiter <- err
			}()
			waitFor(t, "the waiter to join", func() bool { return c.Stats().Hits == 1 })
			close(gate)
			got := <-owner
			if mode == "panic" && got != "owner bug" {
				t.Errorf("owner recovered %v, want its panic re-raised", got)
			}
			if err, _ := got.(error); mode == "cancel" && !errors.Is(err, context.Canceled) {
				t.Errorf("owner got %v, want its own cancellation", got)
			}
			if err := <-waiter; err != ErrAbandoned {
				t.Errorf("waiter got %v, want ErrAbandoned", err)
			}
			if n := c.Len(); n != 0 {
				t.Fatalf("abandoned slot left %d entries", n)
			}
			if _, out, err := c.Do(context.Background(), 1, func(Outcome) (int, error) { return 1, nil }); out != Miss || err != nil {
				t.Fatalf("after abandonment: %v %v, want a fresh Miss", out, err)
			}
		})
	}
}

// TestWaiterOwnContext: a waiter whose own context ends returns its own
// error at once, and the owner still publishes.
func TestWaiterOwnContext(t *testing.T) {
	c := New[int, int](4, intHash)
	gate := make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), 1, func(Outcome) (int, error) {
			<-gate
			return 42, nil
		})
		owner <- err
	}()
	waitFor(t, "the owner to claim the key", func() bool { return c.Len() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, out, err := c.Do(ctx, 1, nil); out != Hit || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter: %v %v, want Hit with its own deadline", out, err)
	}
	close(gate)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek(1); !ok || v != 42 {
		t.Fatalf("Peek after the owner settled: %d %v, want 42", v, ok)
	}
}

// TestCapacityBound: at any capacity the cache never holds more entries
// than its capacity, and each publish is admitted, refused or flushes its
// shard exactly as flush-and-readmit prescribes.
func TestCapacityBound(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 16, 1000} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := New[int, int](capacity, intHash)
			shards := 1
			for shards < maxShards && 2*shards <= capacity {
				shards *= 2
			}
			shardCap := capacity / shards
			held := make([]int, shards)
			refused := make([]int, shards)
			var want Stats
			for k := 0; k < 5*capacity+7; k++ {
				s := intHash(k) & uint64(shards-1)
				wantOut := Miss
				if held[s] < shardCap {
					held[s]++
				} else {
					refused[s]++
					want.Rejected++
					wantOut = Rejected
					if refused[s] >= shardCap {
						held[s], refused[s] = 1, 0
						want.Flushes++
						wantOut = Flushed
					}
				}
				want.Misses++
				_, out, err := c.Do(context.Background(), k, func(Outcome) (int, error) { return k, nil })
				if err != nil || out != wantOut {
					t.Fatalf("key %d: outcome %v err %v, want %v", k, out, err, wantOut)
				}
				if n := c.Len(); n > capacity {
					t.Fatalf("key %d: %d entries held, capacity %d", k, n, capacity)
				}
				if _, ok := c.Peek(k); ok != (out != Rejected) {
					t.Fatalf("key %d (%v): Peek reports cached=%v", k, out, ok)
				}
			}
			if st := c.Stats(); st != want {
				t.Errorf("stats %+v, want %+v", st, want)
			}
		})
	}
}

// TestPeekSettledOnly: Peek reports neither an in-flight nor a failed
// entry.
func TestPeekSettledOnly(t *testing.T) {
	c := New[int, int](4, intHash)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), 1, func(Outcome) (int, error) {
			<-gate
			return 0, errors.New("failed")
		})
	}()
	waitFor(t, "the owner to claim the key", func() bool { return c.Len() == 1 })
	if _, ok := c.Peek(1); ok {
		t.Error("Peek returned an in-flight entry")
	}
	close(gate)
	<-done
	if _, ok := c.Peek(1); ok {
		t.Error("Peek returned a failed entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("Peek counted traffic: %+v", st)
	}
}
