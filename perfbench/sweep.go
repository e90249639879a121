package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/rng"
)

// sweepGraphs is the sweep's graphs-per-configuration count: the paper
// uses 128; two keep one pass of the whole registry near 0.3s on 2 CPUs.
const sweepGraphs = 2

// sweepDigest is the table digest of one pass at defaultSeed. A change
// that alters any figure's numbers or rendering fails the sweep's output
// check at the default seed.
const sweepDigest = "f96e1733211d9e9b2b1a86f2c20519bea5e8646f58e71f5aab243cc3d7ab77cb"

// sweepSeeds is how many pass seeds the timed phase cycles through: two
// per second of the phase, at least four. A pass takes about 0.25s on 2
// CPUs, so sweepCycles cycles fill the phase. The seeds are fixed by the
// run's seed and length, and the phase runs exactly sweepCycles cycles,
// so every such run times the same work, whatever the speed of the host
// or the program. (Running cycles until the time was up made a faster
// run take a third fastest-of pass per seed, which alone moved the rate
// by 15%.)
func sweepSeeds(o options) int { return max(4, int(2*o.seconds.Seconds())) }

// sweepCycles is how many times the timed phase runs every pass seed.
const sweepCycles = 2

// passSeed is the workload seed of pass k: the run's seed itself for
// k = 0, a distinct seed derived from it for every other k (set-up passes
// use k <= 0, timed passes k = 1..sweepSeeds). Most figures share a few
// batches, so one seed holds only a handful of distinct graphs and one
// pass's work differs from another's by up to 2×; timing forty seeds
// averages that out instead of fixing it for a whole run.
func passSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return rng.New(seed).Split(uint64(k)).Uint64()
}

// passOut is one pass's checked output.
type passOut struct {
	digest string
	evals  int64 // graph evaluations (graph × assigner × size cells)
	failed []string
}

// runFigures runs every registry figure concurrently through one fresh
// shared Orchestrator: the dlexp -figure all shape. st, when non-nil,
// receives a span per figure under a span for the pass.
func runFigures(ctx context.Context, base experiment.Config, st *spanStore, req string) ([][]*experiment.Table, error) {
	t0 := time.Now()
	orc := experiment.NewOrchestrator(workers())
	defer orc.Close()
	base.Orchestrator = orc
	keys := experiment.FigureOrder()
	registry := experiment.Figures()
	tables := make([][]*experiment.Table, len(keys))
	errs := make([]error, len(keys))
	spans := make([][2]time.Time, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(i int, fn experiment.FigureFunc) {
			defer wg.Done()
			s := time.Now()
			tables[i], errs[i] = fn(ctx, base)
			spans[i] = [2]time.Time{s, time.Now()}
		}(i, registry[key])
	}
	wg.Wait()
	for i, key := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("figure %s: %w", key, errs[i])
		}
	}
	if st != nil {
		root := st.add("sweep.pass", 0, req, t0, time.Now())
		for i, key := range keys {
			st.add("figure."+key, root, req, spans[i][0], spans[i][1])
		}
	}
	return tables, nil
}

// summarize renders every table, as dlexp prints it, and digests the
// renderings together with the bit patterns of every raw observation.
func summarize(tables [][]*experiment.Table) passOut {
	var out passOut
	h := sha256.New()
	var bits [8]byte
	for fi, ts := range tables {
		key := experiment.FigureOrder()[fi]
		for _, t := range ts {
			fmt.Fprintf(h, "=== %s\n%s\n", key, t.String())
			for _, c := range t.Curves {
				for _, p := range c.Points {
					if p.Failed != "" {
						out.failed = append(out.failed, fmt.Sprintf("figure %s %q size %d: %s", key, c.Label, p.Size, p.Failed))
					}
					out.evals += int64(len(p.Raw))
					for _, v := range p.Raw {
						binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
						h.Write(bits[:])
					}
				}
			}
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// sweepPass runs pass k of a run and summarizes its tables.
func sweepPass(seed uint64, k int, rec *metrics.Recorder, st *spanStore) (passOut, error) {
	base := experiment.Default(generator.MDET)
	base.Graphs = sweepGraphs
	base.Seed = passSeed(seed, k)
	base.Metrics = rec
	tables, err := runFigures(context.Background(), base, st, fmt.Sprintf("pass-%d", k))
	if err != nil {
		return passOut{}, err
	}
	return summarize(tables), nil
}

// timedPass runs sweepPass and returns its wall time in seconds too.
func timedPass(seed uint64, k int, rec *metrics.Recorder, st *spanStore) (passOut, float64, error) {
	t0 := time.Now()
	out, err := sweepPass(seed, k, rec, st)
	return out, time.Since(t0).Seconds(), err
}

// checkPass counts a pass's evaluations and fails it on failed cells or a
// digest other than want (when want is set).
func checkPass(res *result, k int, got passOut, want string) {
	res.attempted += got.evals
	for _, f := range got.failed {
		res.fail(fmt.Sprintf("pass %d: cell failed: %s", k, f))
	}
	if want != "" && got.digest != want {
		res.fail(fmt.Sprintf("pass %d: tables differ from another run of the same seed (%.12s vs %.12s)", k, got.digest, want))
	}
}

// setupSweep times setupReps set-up passes, each at its own seed, so the
// median is not one seed's work. The first runs at the run's seed, whose
// tables must match the recorded digest at the default seed.
func setupSweep(o options, ref *hostRef, res *result) (float64, error) {
	rep := 0
	first, setupS, setups, err := timedSetup(ref, func() (passOut, error) {
		out, err := sweepPass(o.seed, -rep, nil, nil)
		if err != nil {
			return out, err
		}
		checkPass(res, -rep, out, "")
		if rep == 0 {
			res.diag["digest"] = out.digest
			if o.seed == defaultSeed && out.digest != sweepDigest {
				res.fail(fmt.Sprintf("sweep digest %s at the default seed, recorded %s", out.digest, sweepDigest))
			}
		}
		rep++
		return out, nil
	}, func(passOut) {})
	if err != nil {
		return 0, fmt.Errorf("sweep set-up: %w", err)
	}
	res.diag["graphsPerConfig"] = sweepGraphs
	res.diag["evalsPerPass"] = first.evals
	res.diag["setupSeconds"] = setups
	return setupS, nil
}

func runSweep(o options, ref *hostRef) (*result, error) {
	res := newResult()
	setupS, err := setupSweep(o, ref, res)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceSweep(o, res)
	}
	// A seed's first pass records its tables' digest and every later pass
	// must render the same tables; its latency is the fastest of its
	// passes, so a host stall counts only if it hits every one.
	n := sweepSeeds(o)
	best := make([]float64, n)
	digests := make([]string, n)
	evals := make([]int64, n)
	var totalEvals float64
	paused0, refCPU0 := ref.paused, ref.cpu
	pm := startPhase()
	for cycle := 0; cycle < sweepCycles; cycle++ {
		for i := range best {
			out, d, err := timedPass(o.seed, i+1, nil, nil)
			if err != nil {
				return nil, err
			}
			checkPass(res, i+1, out, digests[i])
			if cycle == 0 {
				digests[i], evals[i], best[i] = out.digest, out.evals, d
			}
			best[i] = min(best[i], d)
			totalEvals += float64(out.evals)
			if ref.due() {
				ref.sample()
			}
		}
	}
	ps := pm.stop()
	ps.wall -= ref.paused - paused0
	ps.cpu -= ref.cpu - refCPU0
	// The rate is the seeds' evaluations over their summed best
	// latencies: one seed's pass holds up to twice another's work, so a
	// sum weighs each by its work where a median of pass rates would not.
	var seedEvals, seedSecs float64
	lat := make([]float64, len(best))
	for i := range best {
		seedEvals += float64(evals[i])
		seedSecs += best[i]
		lat[i] = 1e3 * best[i]
	}
	sort.Float64s(lat)
	speed := ref.speed()
	res.setRate("ops_per_s", seedEvals/seedSecs, speed)
	res.setTime("p50_ms", quantile(lat, 0.50), speed)
	res.setTime("p90_ms", quantile(lat, 0.90), speed)
	res.setTime("cpu_us_per_op", float64(ps.cpu.Microseconds())/totalEvals, ref.cpuSpeed())
	res.setTime("setup_s", setupS, speed)
	res.set("peak_heap_mb", ps.peakHeapMB)
	res.diag["hostSpeed"] = speed
	res.diag["hostCPUSpeed"] = ref.cpuSpeed()
	res.diag["refSeconds"] = ref.walls
	res.diag["refCPUSeconds"] = ref.cpus
	res.diag["passSeconds"] = best
	res.diag["wholePhaseOpsPerS"] = totalEvals / ps.wall.Seconds()
	return res, nil
}

// traceSweep alternates untraced passes with a second run of the same
// pass seed that carries the engine's metrics.Recorder and the benchmark's
// own pass and figure spans, so host drift hits both sides of the overhead
// comparison alike and every pass's tables are checked against their
// rerun. Then it derives the per-layer metrics.
func traceSweep(o options, res *result) (*result, error) {
	rec := metrics.New()
	st := newSpanStore()
	var ps phaseStats
	var passes int
	var plainEvals, plainSecs, tracedEvals, tracedSecs float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		k := 1 + i%sweepSeeds(o)
		pm := startPhase()
		p, err := sweepPass(o.seed, k, nil, nil)
		if err != nil {
			return nil, err
		}
		s := pm.stop()
		ps.cpu += s.cpu
		ps.allocBytes += s.allocBytes
		ps.gcCycles += s.gcCycles
		t, d, err := timedPass(o.seed, k, rec, st)
		if err != nil {
			return nil, err
		}
		checkPass(res, k, p, "")
		checkPass(res, k, t, p.digest)
		plainEvals, plainSecs = plainEvals+float64(p.evals), plainSecs+s.wall.Seconds()
		tracedEvals, tracedSecs = tracedEvals+float64(t.evals), tracedSecs+d
		passes++
	}
	snap := rec.Snapshot()
	n := float64(passes)
	stage := map[string]metrics.StageStats{}
	var stageTotal float64
	for _, s := range snap.Stages {
		stage[s.Stage] = s
		stageTotal += float64(s.TotalNanos)
	}
	meanUs := func(name string) float64 {
		s := stage[name]
		if s.Count == 0 {
			return 0
		}
		return float64(s.TotalNanos) / float64(s.Count) / 1e3
	}
	assign := stage["assign"]
	perAssign := func(x int64) float64 { return float64(x) / math.Max(1, float64(assign.Count)) }
	ratio := func(h, m int64) float64 { return float64(h) / math.Max(1, float64(h+m)) }

	genUs, err := generatorUsPerGraph(o.seed)
	if err != nil {
		return nil, err
	}
	res.set("generator.us_per_graph", genUs)
	res.set("core.assign_us", meanUs("assign"))
	res.set("core.assign_calls", float64(assign.Count)/n)
	res.set("core.assign_share", float64(assign.TotalNanos)/math.Max(1, stageTotal))
	res.set("core.rounds_per_assign", perAssign(snap.Search.Iterations))
	res.set("core.dp_runs_per_assign", perAssign(snap.Search.DPRuns))
	res.set("core.memo_reuse_ratio", snap.Search.ReuseRate())
	res.set("scheduler.schedule_us", meanUs("schedule"))
	res.set("scheduler.schedule_calls", float64(stage["schedule"].Count)/n)
	res.set("experiment.fingerprint_us", meanUs("fingerprint"))
	res.set("experiment.transform_us", meanUs("transform"))
	res.set("experiment.measure_us", meanUs("measure"))
	res.set("experiment.fp_hit_ratio", ratio(snap.CacheHits, snap.CacheMisses))
	res.set("experiment.fp_hits", float64(snap.CacheHits)/n)
	res.set("experiment.fp_misses", float64(snap.CacheMisses)/n)
	res.set("experiment.cross_hit_ratio", ratio(snap.CrossHits, snap.CrossMisses))
	res.set("experiment.cross_hits", float64(snap.CrossHits)/n)
	res.set("experiment.cross_misses", float64(snap.CrossMisses)/n)
	res.set("experiment.batch_hit_ratio", ratio(snap.BatchHits, snap.BatchMisses))
	res.set("experiment.batch_hits", float64(snap.BatchHits)/n)
	res.set("experiment.batch_misses", float64(snap.BatchMisses)/n)
	res.set("experiment.pool_jobs", float64(snap.PoolJobs)/n)
	res.set("experiment.pool_peak", float64(snap.PoolPeak))
	addCommonLayers(res, ps, plainEvals, plainEvals/plainSecs, tracedEvals/tracedSecs)
	if got := float64(stage["measure"].Count); got != tracedEvals {
		res.fail(fmt.Sprintf("recorder counted %.0f measure stages, the traced passes' tables hold %.0f", got, tracedEvals))
	}
	res.diag["selfTimes"] = st.layerTimes()
	path, err := writeSpans(o, st.all())
	if err != nil {
		return nil, err
	}
	res.diag["spans"] = path
	return res, nil
}

// generatorUsPerGraph times the paper-default random generator directly.
func generatorUsPerGraph(seed uint64) (float64, error) {
	const n = 256
	t0 := time.Now()
	if _, err := generator.Batch(generator.Default(generator.MDET), rng.New(seed), n); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / n / 1e3, nil
}
