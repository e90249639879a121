package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runsOf builds n identical runs of one benchmark.
func runsOf(n int, ns, bytes, allocs float64) []benchStat {
	runs := make([]benchStat, n)
	for i := range runs {
		runs[i] = benchStat{ns: ns, bytes: bytes, allocs: allocs, mem: true}
	}
	return runs
}

func TestBenchRunsParsesMemColumns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	out := strings.Join([]string{
		"BenchmarkSchedulerDispatch/scratch-2   200   26375 ns/op   172 B/op   0 allocs/op",
		"BenchmarkServeParse/hit-2   2000   75474 ns/op   81.31 MB/s   12506 B/op   14 allocs/op",
		"BenchmarkFigureAll-2   2   101129424 ns/op",
		"PASS",
	}, "\n")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := benchRuns(path, benchLine)
	want := map[string]benchStat{
		"BenchmarkSchedulerDispatch/scratch-2": {ns: 26375, bytes: 172, allocs: 0, mem: true},
		"BenchmarkServeParse/hit-2":            {ns: 75474, bytes: 12506, allocs: 14, mem: true},
		"BenchmarkFigureAll-2":                 {ns: 101129424},
	}
	if len(runs) != len(want) {
		t.Fatalf("parsed %v, want %v", runs, want)
	}
	for name, w := range want {
		if got := runs[name]; len(got) != 1 || got[0] != w {
			t.Errorf("%s: parsed %v, want %v", name, got, w)
		}
	}
}

func TestGateAllocations(t *testing.T) {
	base := map[string][]benchStat{
		"BenchmarkA": runsOf(5, 1000, 4096, 40),
		"BenchmarkB": runsOf(5, 1000, 4096, 0),
		"BenchmarkC": runsOf(5, 1000, 4096, 40),
	}
	for _, c := range []struct {
		name  string
		head  map[string][]benchStat
		fails int
	}{
		{"unchanged", base, 0},
		{"allocs within the limit", map[string][]benchStat{
			"BenchmarkA": runsOf(5, 1000, 4096, 42), "BenchmarkB": base["BenchmarkB"], "BenchmarkC": base["BenchmarkC"]}, 0},
		// One benchmark allocating 10% more fails on its own, though the
		// ns/op geomean is flat.
		{"allocs over the limit", map[string][]benchStat{
			"BenchmarkA": runsOf(5, 1000, 4096, 44), "BenchmarkB": base["BenchmarkB"], "BenchmarkC": base["BenchmarkC"]}, 1},
		{"zero-alloc benchmark allocates", map[string][]benchStat{
			"BenchmarkA": base["BenchmarkA"], "BenchmarkB": runsOf(5, 1000, 4096, 1), "BenchmarkC": base["BenchmarkC"]}, 1},
		{"bytes over the limit", map[string][]benchStat{
			"BenchmarkA": base["BenchmarkA"], "BenchmarkB": base["BenchmarkB"], "BenchmarkC": runsOf(5, 1000, 8192, 40)}, 1},
	} {
		r := gate(base, c.head, 1.10)
		if r.shared != 3 || len(r.memFails) != c.fails {
			t.Errorf("%s: %d shared, failures %q, want 3 shared and %d failures", c.name, r.shared, r.memFails, c.fails)
		}
	}
}

// TestGateSkipsNoisyBytesAndRunsWithoutBenchmem: B/op whose base runs
// spread beyond bytesSpread is reported, not gated, and runs made without
// -benchmem pass the allocation gate untouched.
func TestGateSkipsNoisyBytesAndRunsWithoutBenchmem(t *testing.T) {
	noisy := runsOf(5, 1000, 4096, 40)
	noisy[0].bytes = 5000
	base := map[string][]benchStat{"BenchmarkA": noisy, "BenchmarkB": {{ns: 1000}, {ns: 1000}}}
	head := map[string][]benchStat{"BenchmarkA": runsOf(5, 1000, 8192, 40), "BenchmarkB": {{ns: 1000}}}
	r := gate(base, head, 1.10)
	if len(r.memFails) != 0 {
		t.Errorf("failures %q, want none", r.memFails)
	}
	if !strings.Contains(strings.Join(r.report, "\n"), "BenchmarkA B/op spreads 4096..5000 in base, not gated") {
		t.Errorf("noisy B/op not reported:\n%s", strings.Join(r.report, "\n"))
	}
	if !strings.Contains(strings.Join(r.report, "\n"), "1 benchmarks allocation-gated") {
		t.Errorf("gated count wrong:\n%s", strings.Join(r.report, "\n"))
	}
}

func TestGateGeomean(t *testing.T) {
	base := map[string][]benchStat{"BenchmarkA": runsOf(5, 1000, 0, 0), "BenchmarkB": runsOf(5, 1000, 0, 0)}
	head := map[string][]benchStat{"BenchmarkA": runsOf(5, 4000, 0, 0), "BenchmarkB": runsOf(5, 1000, 0, 0),
		"BenchmarkNew": runsOf(1, 1, 0, 0)}
	r := gate(base, head, 1.10)
	if r.shared != 2 || r.geomean < 1.999 || r.geomean > 2.001 {
		t.Errorf("shared %d, geomean %v; want 2 and 2", r.shared, r.geomean)
	}
	if !strings.Contains(strings.Join(r.report, "\n"), "BenchmarkNew only in head, skipped") {
		t.Errorf("one-sided benchmark not reported:\n%s", strings.Join(r.report, "\n"))
	}
}
