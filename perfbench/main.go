// Command perfbench is the repository's end-to-end benchmark. It drives the
// real code from outside, in one process: the figure registry through a
// shared experiment.Orchestrator (workload sweep), and a loopback dlserve
// server fed by closed-loop clients (workloads serve-miss and serve-hit).
//
//	perfbench --workload sweep|serve-miss|serve-hit --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, and prints the per-layer metrics
// and the tracing overhead. Either way it checks every output it samples,
// and the last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// A failed check or a broken run-validity guard makes the run report its
// failures with no metric values and exit 1. README.md explains the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // directory the traced run writes its spans into
}

// metricDef names one metric of the result line and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order. Every
// workload reports all of them; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, in print order. A layer a
// workload does not exercise reads 0 (README.md says which).
var perLayer = []metricDef{
	{"generator.us_per_graph", "us"},
	{"core.assign_us", "us"},
	{"core.assign_calls", "count"},
	{"core.assign_share", "ratio"},
	{"core.rounds_per_assign", "count"},
	{"core.dp_runs_per_assign", "count"},
	{"core.memo_reuse_ratio", "ratio"},
	{"scheduler.schedule_us", "us"},
	{"scheduler.schedule_calls", "count"},
	{"experiment.fingerprint_us", "us"},
	{"experiment.transform_us", "us"},
	{"experiment.measure_us", "us"},
	{"experiment.fp_hit_ratio", "ratio"},
	{"experiment.fp_hits", "count"},
	{"experiment.fp_misses", "count"},
	{"experiment.cross_hit_ratio", "ratio"},
	{"experiment.cross_hits", "count"},
	{"experiment.cross_misses", "count"},
	{"experiment.batch_hit_ratio", "ratio"},
	{"experiment.batch_hits", "count"},
	{"experiment.batch_misses", "count"},
	{"experiment.pool_jobs", "count"},
	{"experiment.pool_peak", "count"},
	{"serve.request_us", "us"},
	{"serve.request_decode_us", "us"},
	{"taskgraph.decode_us", "us"},
	{"serve.key_us", "us"},
	{"serve.parse_share", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_wait_us", "us"},
	{"serve.admission_us", "us"},
	{"serve.attempt_us", "us"},
	{"serve.attempts_per_miss", "count"},
	{"core.distribute_us", "us"},
	{"scheduler.run_us", "us"},
	{"serve.pool_wait_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.write_us", "us"},
	{"http.client_overhead_us", "us"},
	{"serve.tier_changes", "count"},
	{"serve.shed", "count"},
	{"serve.retries", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// tally counts attempted and failed ops and keeps the first few failure
// reasons.
type tally struct {
	attempted, failed int64
	failures          []string
}

const maxFailures = 8

// fail records one failed op with its reason.
func (t *tally) fail(reason string) {
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, reason)
	}
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, f)
		}
	}
}

// result is what a workload run reports. Diagnostics are printed on their
// own line before the result line; they are never scored.
type result struct {
	tally
	values   map[string]float64
	measured map[string]float64 // values before the host-speed restatement
	diag     map[string]any
}

func newResult() *result {
	return &result{values: map[string]float64{}, measured: map[string]float64{}, diag: map[string]any{}}
}

// set records one metric value by name.
func (r *result) set(name string, value float64) { r.values[name] = value }

// setTime records a time measured on a host running at speed
// (hostRef.speed), restated at nominal speed, and keeps the measured value
// for the diagnostics.
func (r *result) setTime(name string, measured, speed float64) {
	r.set(name, measured*speed)
	r.measured[name] = measured
}

// setRate is setTime for a rate.
func (r *result) setRate(name string, measured, speed float64) {
	r.set(name, measured/speed)
	r.measured[name] = measured
}

func (r *result) correct() bool { return r.failed == 0 }

// workloads maps each workload name to its runner. An untraced run states
// its time-based metrics at the host speed ref measures; a traced run gets
// a nil ref.
var workloads = map[string]func(options, *hostRef) (*result, error){
	"sweep":      runSweep,
	"serve-miss": func(o options, ref *hostRef) (*result, error) { return runServe(o, ref, false) },
	"serve-hit":  func(o options, ref *hostRef) (*result, error) { return runServe(o, ref, true) },
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sweep, serve-miss or serve-hit")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (inputs are generated from it)")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want sweep, serve-miss or serve-hit)", o.workload)
	}
	if seconds <= 0 || seconds > 120 {
		return o, fmt.Errorf("--seconds %v out of range (0, 120]", seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Pool workers, clients and GOMAXPROCS all equal the CPUs this process
	// may run on, so a run says what hardware it used.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var ref *hostRef
	if !o.trace {
		if ref, err = newHostRef(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	res, err := workloads[o.workload](o, ref)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed: %s\n",
			res.failed, res.attempted, strings.Join(res.failures, "; "))
		return 1
	}
	return 0
}

// report prints the environment line, the diagnostics line and, last, the
// result line. A run with failures prints no metric values.
func report(w io.Writer, o options, res *result) error {
	env := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds.Seconds(),
		"trace":       o.trace,
		"cpus":        runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"poolWorkers": workers(),
		"goVersion":   runtime.Version(),
	}
	if o.workload != "sweep" {
		env["clients"] = workers()
	}
	if err := printJSONLine(w, map[string]any{"env": env}); err != nil {
		return err
	}
	if len(res.measured) > 0 {
		res.diag["measured"] = res.measured
	}
	res.diag["failures"] = res.failures
	res.diag["failRatio"] = float64(res.failed) / float64(max(1, res.attempted))
	if err := printJSONLine(w, map[string]any{"diagnostics": res.diag}); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`,
		res.correct(), res.attempted, res.failed)
	if res.correct() {
		defs, required := endToEnd, true
		if o.trace {
			defs, required = perLayer, false
		}
		known := map[string]bool{}
		for i, d := range defs {
			known[d.name] = true
			v, ok := res.values[d.name]
			if !ok && required {
				return fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
			}
			val, err := json.Marshal(v)
			if err != nil {
				return fmt.Errorf("metric %s: %w", d.name, err)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, d.name, val, d.unit)
		}
		for name := range res.values {
			if !known[name] {
				return fmt.Errorf("workload %s measured undeclared metric %s", o.workload, name)
			}
		}
	}
	b.WriteString("}}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func printJSONLine(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// workers is the pool size and the client count of every workload.
func workers() int { return runtime.GOMAXPROCS(0) }

// writeSpans writes a traced run's spans as JSON lines into o.out.
func writeSpans(o options, spans []span) (string, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
