package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts for
// minutes at a time: the same serve-miss run has taken 895 and 1423 µs of
// CPU per request an hour apart. A hostRef measures that speed inside a
// run: a fixed piece of work owned by the benchmark, which runs no
// repository code, sampled on every CPU between slices of the timed phase
// and after every set-up. Each time-based end-to-end metric is then
// restated at the speed at which one sample takes refNominal seconds. No
// change to the program can move the reference, so a change still moves
// the metrics in full.
//
// The work is a hand-written decode of a fixed task-graph JSON document —
// byte scanning, a map lookup per key, digit parsing — followed by a small
// float dynamic program: the mix of request decoding and deadline slicing
// both workloads spend their time in. It allocates nothing, so it never
// starts a garbage collection whose cost would depend on the program's
// heap. On the 2-CPU VM of README.md, interleaved with each workload for
// two minutes while the host drifted, its time per sample followed the
// sweep's pass rate with a correlation of 0.74 (wall time) to 0.87 (CPU
// time) and the serve-miss request rate with 0.81 to 0.92, over
// 10-to-30-second spans.
// Units are handed out dynamically, so one slow CPU slows a sample the
// way it slows the workloads' shared pools, not by the whole of its
// share.
type hostRef struct {
	doc    []byte
	keys   map[string]int // index of each refKeys entry
	sink   float64        // the units' results, so none is optimized away
	walls  []float64      // every sample's wall time in seconds
	cpus   []float64      // every sample's process CPU time in seconds
	last   time.Time      // when the last sample ended
	paused time.Duration  // total wall time of the samples
	cpu    time.Duration  // total process CPU time of the samples
}

// refKeys are the document's keys; a unit sums the numbers of each.
var refKeys = [...]string{"subtasks", "arcs", "name", "cost", "endToEnd", "from", "to", "size"}

const (
	refSubtasks = 50  // subtasks of the reference document
	refUnits    = 270 // units per sample, over all CPUs
	refDPCols   = 256
	refDPRows   = 64
	// refNominal and refNominalCPU are one sample's wall and CPU time at
	// the host speed the metrics are stated at: typical times on the
	// 2-CPU VM of README.md.
	refNominal    = 0.030
	refNominalCPU = 0.058
	// refEvery is the least time between two samples of a timed phase.
	refEvery = 500 * time.Millisecond
)

// refGraph is the reference document's shape: a task graph as a dlserve
// request carries it, declared here so the reference owes nothing to the
// repository's types.
type refGraph struct {
	Subtasks []refSubtask `json:"subtasks"`
	Arcs     []refArc     `json:"arcs"`
}

type refSubtask struct {
	Name     string  `json:"name"`
	Cost     float64 `json:"cost"`
	EndToEnd float64 `json:"endToEnd,omitempty"`
}

type refArc struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Size float64 `json:"size"`
}

// newHostRef builds the reference document, the same on every run and
// seed.
func newHostRef() (*hostRef, error) {
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return (z ^ (z >> 31)) % n
	}
	var g refGraph
	for i := 0; i < refSubtasks; i++ {
		st := refSubtask{Name: fmt.Sprintf("t%d", i), Cost: float64(1+next(4000)) / 100}
		if next(4) == 0 {
			st.EndToEnd = float64(next(100000)) / 10
		}
		g.Subtasks = append(g.Subtasks, st)
		for j := 0; j < i && j < 3; j++ {
			g.Arcs = append(g.Arcs, refArc{From: fmt.Sprintf("t%d", next(uint64(i))), To: st.Name, Size: float64(next(1000)) / 10})
		}
	}
	doc, err := json.Marshal(&g)
	if err != nil {
		return nil, err
	}
	h := &hostRef{doc: doc, keys: map[string]int{}}
	for i, k := range refKeys {
		h.keys[k] = i
	}
	return h, nil
}

// unit decodes the document once by hand, summing the numbers under each
// key, and runs a small float dynamic program over the sums.
func (h *hostRef) unit() float64 {
	var sums [len(refKeys)]float64
	field := -1
	doc := h.doc
	for i := 0; i < len(doc); i++ {
		switch c := doc[i]; {
		case c == '"':
			j := i + 1
			for j < len(doc) && doc[j] != '"' {
				j++
			}
			if k, ok := h.keys[string(doc[i+1:j])]; ok {
				field = k
			}
			i = j
		case c >= '0' && c <= '9':
			var v float64
			for ; i < len(doc) && (doc[i] == '.' || doc[i] >= '0' && doc[i] <= '9'); i++ {
				if doc[i] != '.' {
					v = v*10 + float64(doc[i]-'0')
				}
			}
			if field >= 0 {
				sums[field] += v
			}
			i--
		}
	}
	var row [refDPCols]float64
	for r := 0; r < refDPRows; r++ {
		w := sums[r%len(sums)] / float64(r+1)
		for c := 1; c < refDPCols; c++ {
			v := row[c-1] + w/float64(c)
			if v > row[c] {
				row[c] = v
			} else {
				row[c] = math.Max(row[c]-v/4, 0)
			}
		}
	}
	return row[refDPCols-1]
}

// sample runs refUnits units, handed out to one goroutine per CPU, and
// records the wall time. The workload is paused while it runs. A nil
// hostRef (traced runs and tests, which state no end-to-end metric) takes
// no samples.
func (h *hostRef) sample() {
	if h == nil {
		return
	}
	c0 := cpuTime()
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	sinks := make([]float64, workers())
	for w := range sinks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sink float64
			for next.Add(1) <= refUnits {
				sink += h.unit()
			}
			sinks[w] = sink
		}(w)
	}
	wg.Wait()
	for _, v := range sinks {
		h.sink += v
	}
	h.last = time.Now()
	d, c := h.last.Sub(t0), cpuTime()-c0
	h.paused += d
	h.cpu += c
	h.walls = append(h.walls, d.Seconds())
	h.cpus = append(h.cpus, c.Seconds())
}

// due reports whether refEvery has passed since the last sample.
func (h *hostRef) due() bool {
	return h != nil && (len(h.cpus) == 0 || time.Since(h.last) >= refEvery)
}

// speed is the host's speed over the run, relative to the speed at which
// one sample takes refNominal seconds: 0.8 means the host ran 20% slow. A
// wall time the run measured is restated at nominal speed by multiplying
// it by speed, a rate by dividing. It uses the median sample, as the
// metrics it corrects are medians (or sums) over the run, not single
// instants.
func (h *hostRef) speed() float64 {
	if h == nil || len(h.walls) == 0 {
		return 1
	}
	return refNominal / median(append([]float64(nil), h.walls...))
}

// cpuSpeed is speed for CPU time, from the samples' CPU time. The two
// differ when the host takes a vCPU away for a while, which stretches
// wall time but not CPU time.
func (h *hostRef) cpuSpeed() float64 {
	if h == nil || len(h.cpus) == 0 {
		return 1
	}
	return refNominalCPU / median(append([]float64(nil), h.cpus...))
}
