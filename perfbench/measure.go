package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the workload seed whose sweep digest is recorded in
// sweep.go (the paper's publication year, like experiment.Default).
const defaultSeed = 1997

// setupReps is how many times a run sets its workload up. setup_s is the
// median: one set-up is short enough that a single host stall moves it.
const setupReps = 5

// windowOps is the window of the serve workloads' completion-rate median:
// at one to two thousand requests per second (2 CPUs), a 20s phase holds
// one to two hundred windows.
const windowOps = 200

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// completion is one successful op: when it completed, as an offset from
// the phase start, and its latency.
type completion struct {
	at    time.Duration
	latMs float64
}

// windowRates splits completions, in completion order, into consecutive
// windows of windowOps and returns each window's rate in ops per second.
// A stall lengthens the window it falls in, so the median rate skips it;
// a count-based window keeps every digit of the rate instead of
// quantizing it to 1/window-length. A phase too short for one window is
// one window of its wall time.
func windowRates(cs []completion, wall time.Duration) []float64 {
	if len(cs) <= windowOps {
		return []float64{float64(len(cs)) / wall.Seconds()}
	}
	at := make([]time.Duration, len(cs))
	for i, c := range cs {
		at[i] = c.at
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	var rates []float64
	for j := 0; j+windowOps < len(at); j += windowOps {
		if d := at[j+windowOps] - at[j]; d > 0 {
			rates = append(rates, windowOps/d.Seconds())
		}
	}
	return rates
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the Go heap's live-object bytes every 5ms and keeps
// the peak of every second. runtime/metrics reads do not stop the world,
// so sampling does not perturb the phase it watches.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // per-second peaks; written by the sampler, read after done
}

const (
	heapMetric   = "/memory/classes/heap/objects:bytes"
	heapEvery    = 5 * time.Millisecond
	heapInterval = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		var peak uint64
		next := time.Now().Add(heapInterval)
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			if now := time.Now(); !now.Before(next) {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, next = 0, next.Add(heapInterval)
			}
			select {
			case <-t.C:
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median of the per-second peaks in
// MiB: the heap a phase typically peaks at, with one GC cycle's timing
// unable to move it.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// phaseMeter brackets a timed phase: wall clock, process CPU, heap peak,
// allocation and GC counts.
type phaseMeter struct {
	start time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
	heap  *heapSampler
}

// phaseStats is what a phaseMeter measured.
type phaseStats struct {
	wall       time.Duration
	cpu        time.Duration
	peakHeapMB float64
	allocBytes uint64
	gcCycles   uint32
}

func startPhase() *phaseMeter {
	m := &phaseMeter{}
	runtime.ReadMemStats(&m.ms0)
	m.heap = startHeapSampler()
	m.cpu0 = cpuTime()
	m.start = time.Now()
	return m
}

func (m *phaseMeter) stop() phaseStats {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu0
	peak := m.heap.Stop()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseStats{
		wall:       wall,
		cpu:        cpu,
		peakHeapMB: peak,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		gcCycles:   ms.NumGC - m.ms0.NumGC,
	}
}

// timedSetup runs setup setupReps times and returns the last set-up value,
// the median set-up time in seconds, and every set-up time. Each earlier
// value is released with teardown before the next set-up starts. Every
// set-up ends with runtime.GC(), so the timed phase starts from a
// collected heap, and is followed by a host reference sample.
func timedSetup[T any](ref *hostRef, setup func() (T, error), teardown func(T)) (T, float64, []float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, nil, err
		}
		runtime.GC()
		times = append(times, time.Since(t0).Seconds())
		last = v
		ref.sample()
	}
	all := append([]float64(nil), times...)
	return last, median(times), all, nil
}
