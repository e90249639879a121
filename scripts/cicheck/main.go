// Command cicheck holds the checks CI runs on benchmark output and on the
// artifacts of the dlexp and dlserve smoke runs, so CI needs no toolchain
// but Go. Each check exits 1 with a message when it fails.
//
// Usage:
//
//	go run ./scripts/cicheck perfgate [-limit 1.10] BASE.txt HEAD.txt
//	go run ./scripts/cicheck progress < progress.json
//	go run ./scripts/cicheck events RUN.jsonl TRACE.json
//	go run ./scripts/cicheck bodies CODES_DIR BODIES_DIR
//	go run ./scripts/cicheck slo SLO.json
//	go run ./scripts/cicheck scaling SCALING.txt
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	checks := map[string]func([]string){
		"perfgate": perfgate, "progress": progress, "events": events,
		"bodies": bodies, "slo": slo, "scaling": scaling,
	}
	if len(os.Args) < 2 || checks[os.Args[1]] == nil {
		check(false, "usage: cicheck perfgate|progress|events|bodies|slo|scaling ARGS")
	}
	checks[os.Args[1]](os.Args[2:])
}

func check(ok bool, format string, args ...any) {
	if !ok {
		fmt.Fprintf(os.Stderr, "cicheck: "+format+"\n", args...)
		os.Exit(1)
	}
}

func need(args []string, n int) {
	check(len(args) == n, "want %d arguments, got %d", n, len(args))
}

func readFile(path string) []byte {
	b, err := os.ReadFile(path)
	check(err == nil, "%v", err)
	return b
}

func decode(data []byte, v any, what string) {
	check(json.Unmarshal(data, v) == nil, "%s is not the expected JSON: %s", what, data)
}

// benchStat is one `go test -bench` result line: ns/op and, when the run
// had -benchmem, B/op and allocs/op (mem set).
type benchStat struct {
	ns, bytes, allocs float64
	mem               bool
}

// benchRuns maps each benchmark matched by re in `go test -bench` output
// to its runs, in file order. re's first group names the benchmark, the
// second matches ns/op and optional third and fourth groups B/op and
// allocs/op.
func benchRuns(path string, re *regexp.Regexp) map[string][]benchStat {
	runs := make(map[string][]benchStat)
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		check(err == nil, "%s: %v", path, err)
		return v
	}
	for _, line := range strings.Split(string(readFile(path)), "\n") {
		if m := re.FindStringSubmatch(line); m != nil {
			st := benchStat{ns: num(m[2])}
			if len(m) > 4 && m[3] != "" {
				st.bytes, st.allocs, st.mem = num(m[3]), num(m[4]), true
			}
			runs[m[1]] = append(runs[m[1]], st)
		}
	}
	return runs
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// Allocation gate. Allocation counts barely move between runs of the same
// code: over five rounds of the gated benchmarks on unchanged code,
// allocs/op spread by at most 1.1% (max/min, the concurrent figure
// benchmarks; most are exact) and B/op by at most 0.3%. A benchmark fails
// when its head median allocs/op exceeds allocLimit times the base median,
// and likewise B/op when the base runs' own B/op spread (max/min) is at
// most bytesSpread; a noisier B/op is reported but not gated.
const (
	allocLimit  = 1.05
	bytesSpread = 1.02
)

// median returns the median of f over runs.
func median(runs []benchStat, f func(benchStat) float64) float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = f(r)
	}
	slices.Sort(v)
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

func nsOf(r benchStat) float64     { return r.ns }
func bytesOf(r benchStat) float64  { return r.bytes }
func allocsOf(r benchStat) float64 { return r.allocs }

// gateResult is perfgate's verdict on two benchmark outputs.
type gateResult struct {
	report   []string // lines to print
	geomean  float64  // of head/base median ns/op over the shared benchmarks
	shared   int
	memFails []string // benchmarks over the allocation gate
}

// gate compares base and head runs: the geomean of head/base median ns/op
// over the benchmarks both sides ran, with the five worst ratios, and each
// benchmark's median allocs/op and B/op under the allocation gate.
func gate(base, head map[string][]benchStat, limit float64) gateResult {
	var names []string
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var r gateResult
	var shared []string
	for _, name := range names {
		_, inBase := base[name]
		_, inHead := head[name]
		switch {
		case inBase && inHead:
			shared = append(shared, name)
		case inBase:
			r.report = append(r.report, fmt.Sprintf("perfgate: %s only in base, skipped", name))
		default:
			r.report = append(r.report, fmt.Sprintf("perfgate: %s only in head, skipped", name))
		}
	}
	r.shared = len(shared)
	if len(shared) == 0 {
		return r
	}
	ratio := func(name string) float64 { return median(head[name], nsOf) / median(base[name], nsOf) }
	logSum := 0.0
	for _, name := range shared {
		logSum += math.Log(ratio(name))
	}
	r.geomean = math.Exp(logSum / float64(len(shared)))
	r.report = append(r.report, fmt.Sprintf("perfgate: %d benchmarks, geomean head/base = %.3f (limit %.2f)", len(shared), r.geomean, limit))
	worst := slices.Clone(shared)
	sort.SliceStable(worst, func(i, j int) bool { return ratio(worst[i]) > ratio(worst[j]) })
	for _, name := range worst[:min(5, len(worst))] {
		r.report = append(r.report, fmt.Sprintf("  %6.3fx  %s  %12.1f -> %12.1f ns/op",
			ratio(name), name, median(base[name], nsOf), median(head[name], nsOf)))
	}

	withMem := func(runs []benchStat) bool {
		return !slices.ContainsFunc(runs, func(s benchStat) bool { return !s.mem })
	}
	memGated := 0
	for _, name := range shared {
		b, h := base[name], head[name]
		if !withMem(b) || !withMem(h) {
			continue
		}
		memGated++
		if ba, ha := median(b, allocsOf), median(h, allocsOf); ha > ba*allocLimit {
			r.memFails = append(r.memFails, fmt.Sprintf("  %s  %.0f -> %.0f allocs/op", name, ba, ha))
		}
		lo, hi := b[0].bytes, b[0].bytes
		for _, run := range b {
			lo, hi = min(lo, run.bytes), max(hi, run.bytes)
		}
		if hi > lo*bytesSpread {
			r.report = append(r.report, fmt.Sprintf("perfgate: %s B/op spreads %.0f..%.0f in base, not gated", name, lo, hi))
			continue
		}
		if bb, hb := median(b, bytesOf), median(h, bytesOf); hb > bb*allocLimit {
			r.memFails = append(r.memFails, fmt.Sprintf("  %s  %.0f -> %.0f B/op", name, bb, hb))
		}
	}
	r.report = append(r.report, fmt.Sprintf("perfgate: %d benchmarks allocation-gated (limit %.2fx median allocs/op and B/op)", memGated, allocLimit))
	return r
}

// perfgate compares two `go test -bench` outputs. Each benchmark's
// repeats are reduced to their median, which one slow repeat on a shared
// runner cannot move; benchmarks found on one side only are reported and
// skipped. It fails when the geomean of head/base median ns/op over the
// shared benchmarks exceeds the limit, and prints the five worst ratios so
// a localized regression inside a healthy geomean still shows in the log.
// Runs made with -benchmem also pass each benchmark's median allocs/op and
// B/op through the allocation gate, which a regression in one benchmark
// fails on its own.
func perfgate(args []string) {
	fs := flag.NewFlagSet("perfgate", flag.ExitOnError)
	limit := fs.Float64("limit", 1.10, "largest allowed geomean of head/base median ns/op")
	fs.Parse(args)
	need(fs.Args(), 2)
	r := gate(benchRuns(fs.Arg(0), benchLine), benchRuns(fs.Arg(1), benchLine), *limit)
	check(r.shared > 0, "perfgate: no shared benchmarks between base and head")
	for _, line := range r.report {
		fmt.Println(line)
	}
	for _, line := range r.memFails {
		fmt.Println(line)
	}
	check(r.geomean <= *limit, "perfgate: FAIL geomean regression %.3f > %.2f", r.geomean, *limit)
	check(len(r.memFails) == 0, "perfgate: FAIL %d allocation regressions over %.2fx", len(r.memFails), allocLimit)
	fmt.Println("perfgate: OK")
}

// progress checks a dlexp /progress document read from stdin.
func progress(args []string) {
	data, err := io.ReadAll(os.Stdin)
	check(err == nil, "%v", err)
	var doc struct{ UnitsTotal *float64 }
	decode(data, &doc, "/progress")
	check(doc.UnitsTotal != nil && *doc.UnitsTotal > 0, "/progress has no units: %s", data)
}

// events checks a dlexp event log for successful unit spans and its Chrome
// trace for a non-empty event list.
func events(args []string) {
	need(args, 2)
	dec := json.NewDecoder(bytes.NewReader(readFile(args[0])))
	units := 0
	for dec.More() {
		var ev struct {
			Kind    *string
			Outcome string
		}
		check(dec.Decode(&ev) == nil && ev.Kind != nil, "%s: malformed event", args[0])
		if *ev.Kind == "unit" && ev.Outcome == "ok" {
			units++
		}
	}
	check(units > 0, "no successful unit spans in the event log")
	var trace []json.RawMessage
	decode(readFile(args[1]), &trace, args[1])
	check(len(trace) > 0, "chrome trace empty")
}

// bodies checks the dlserve smoke's responses: CODES_DIR/NAME holds a
// status and BODIES_DIR/NAME its body. Every response is a verdict or one
// taxonomy error, the invalid requests (bad_*) all get 400, and the
// successes are byte-identical.
func bodies(args []string) {
	need(args, 2)
	entries, err := os.ReadDir(args[0])
	check(err == nil, "%v", err)
	okBodies := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		code := strings.TrimSpace(string(readFile(filepath.Join(args[0], name))))
		body := readFile(filepath.Join(args[1], name))
		check(slices.Contains([]string{"200", "400", "429", "500", "503"}, code), "%s: status %s", name, code)
		var doc struct {
			Verdict  map[string]any
			Subtasks []any
			Error    struct{ Class string }
		}
		decode(body, &doc, name)
		if code == "200" {
			check(len(doc.Verdict) > 0 && len(doc.Subtasks) > 0, "%s: 200 without a verdict", name)
			okBodies[string(body)] = true
		} else {
			check(slices.Contains([]string{"invalid", "overload", "transient", "internal"}, doc.Error.Class),
				"%s: non-taxonomy error %s", name, body)
		}
		check(!strings.HasPrefix(name, "bad_") || code == "400", "%s: invalid request got %s", name, code)
	}
	check(len(okBodies) > 0, "no request succeeded")
	check(len(okBodies) == 1, "identical requests returned %d distinct bodies", len(okBodies))
	fmt.Printf("%d responses, all in taxonomy; successes byte-identical\n", len(entries))
}

// slo checks a dlserve /slo document for internal consistency: burn =
// bad fraction / error budget on every window of every class.
func slo(args []string) {
	need(args, 1)
	type class struct {
		Class                    string
		Target, ObjectiveSeconds float64
		Served, Bad              float64
		State                    string
		Windows                  []struct{ Good, Bad, BurnRate float64 }
	}
	var doc struct{ Classes []class }
	decode(readFile(args[0]), &doc, args[0])
	classes := make(map[string]class)
	for _, c := range doc.Classes {
		classes[c.Class] = c
		check(0 < c.Target && c.Target < 1 && c.ObjectiveSeconds > 0, "%s: bad objective %+v", c.Class, c)
		check(c.Served >= c.Bad && c.Bad >= 0, "%s: bad counts %+v", c.Class, c)
		check(slices.Contains([]string{"ok", "warning", "page"}, c.State), "%s: state %q", c.Class, c.State)
		for _, w := range c.Windows {
			want := 0.0
			if total := w.Good + w.Bad; total > 0 {
				want = (w.Bad / total) / (1 - c.Target)
			}
			check(math.Abs(w.BurnRate-want) < 1e-6, "%s: window %+v burn rate, want %v", c.Class, w, want)
		}
	}
	for _, name := range []string{"interactive", "standard", "batch"} {
		_, ok := classes[name]
		check(ok && len(classes) == 3, "classes %v", classes)
	}
	check(classes["interactive"].Served >= 12, "interactive served %v", classes["interactive"].Served)
	check(classes["batch"].State == "ok", "batch state %q", classes["batch"].State)
	fmt.Println("/slo consistent: burn = bad fraction / (1 - target) on every window")
}

var scalingLine = regexp.MustCompile(`^BenchmarkWorkerScaling/workers=(\d+)\S*\s+\d+\s+([\d.]+) ns/op`)

// scaling checks BenchmarkWorkerScaling output: workers=4 must beat
// workers=1 by a floor that follows the runner's CPU count. With 4 or more
// CPUs the target is 2x and the floor 1.6x, which leaves room for noisy
// shared runners. With 2 or 3 CPUs at most 2 workers run at once, so the
// floor is 1.2x (a 2-CPU VM measures 1.38x). Either floor rejects a
// serialized hot path (speedup ~1.0). One CPU cannot show a speedup, so
// the check fails rather than pass vacuously.
func scaling(args []string) {
	need(args, 1)
	cpus := runtime.NumCPU()
	check(cpus >= 2, "scaling needs at least 2 CPUs, this runner has %d", cpus)
	floor := 1.6
	if cpus < 4 {
		floor = 1.2
	}
	runs := benchRuns(args[0], scalingLine)
	check(len(runs["1"]) > 0 && len(runs["4"]) > 0, "missing sub-benchmarks: %v", runs)
	one, four := runs["1"][len(runs["1"])-1].ns, runs["4"][len(runs["4"])-1].ns
	speedup := one / four
	fmt.Printf("workers=1 %.0f ns/op, workers=4 %.0f ns/op, speedup %.2fx (floor %.1fx on %d CPUs)\n",
		one, four, speedup, floor, cpus)
	check(speedup >= floor, "workers=4 speedup %.2fx below the %.1fx floor for %d CPUs", speedup, floor, cpus)
}
