package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

const sampleGraph = `{
  "subtasks": [
    {"name": "a", "cost": 10},
    {"name": "b", "cost": 20},
    {"name": "c", "cost": 10, "endToEnd": 120}
  ],
  "arcs": [
    {"from": "a", "to": "b", "size": 5},
    {"from": "b", "to": "c", "size": 5}
  ]
}`

func TestRunFromStdin(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-procs", "2", "-metric", "ADAPT"}, strings.NewReader(sampleGraph), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3 subtasks", "2 processors", "metric ADAPT", "max lateness", "P0", "P1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, []byte(sampleGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-windows", "-gantt=false"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "subtask windows") {
		t.Errorf("windows not printed:\n%s", out.String())
	}
	if strings.Contains(out.String(), "makespan %!") {
		t.Errorf("formatting bug:\n%s", out.String())
	}
}

func TestRunAllMetricsAndEstimators(t *testing.T) {
	for _, m := range []string{"NORM", "PURE", "THRES", "ADAPT"} {
		for _, e := range []string{"CCNE", "CCAA", "CCEXP"} {
			var out bytes.Buffer
			err := run(context.Background(), []string{"-metric", m, "-estimator", e, "-gantt=false"},
				strings.NewReader(sampleGraph), &out)
			if err != nil {
				t.Fatalf("%s/%s: %v", m, e, err)
			}
		}
	}
}

func TestRunContended(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-contended", "-gantt=false"}, strings.NewReader(sampleGraph), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "contention=true") {
		t.Errorf("contention not reported:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	t.Run("bad metric", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-metric", "XYZ"}, strings.NewReader(sampleGraph), &out); err == nil {
			t.Fatal("bad metric accepted")
		}
	})
	t.Run("bad estimator", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-estimator", "XYZ"}, strings.NewReader(sampleGraph), &out); err == nil {
			t.Fatal("bad estimator accepted")
		}
	})
	t.Run("bad graph", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(context.Background(), nil, strings.NewReader("{"), &out); err == nil {
			t.Fatal("bad graph accepted")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-in", "/nonexistent/g.json"}, strings.NewReader(""), &out); err == nil {
			t.Fatal("missing file accepted")
		}
	})
	t.Run("bad procs", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-procs", "0"}, strings.NewReader(sampleGraph), &out); err == nil {
			t.Fatal("zero processors accepted")
		}
	})
}

// TestRunRejectsBadFlags: out-of-range processor counts and non-finite
// metric parameters are refused before the graph is read, with an error
// naming the flag. -procs 900000000 used to exhaust memory in
// platform.New, and -delta NaN to reach an internal search error.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-procs", "900000000"}, "-procs"},
		{[]string{"-procs", "1025"}, "-procs"},
		{[]string{"-procs", "0"}, "-procs"},
		{[]string{"-procs", "-3"}, "-procs"},
		{[]string{"-metric", "THRES", "-delta", "NaN"}, "-delta"},
		{[]string{"-metric", "THRES", "-delta", "-Inf"}, "-delta"},
		{[]string{"-cthres", "NaN"}, "-cthres"},
		{[]string{"-metric", "THRES", "-cthres", "+Inf"}, "-cthres"},
	} {
		// The reader fails if read: validation comes before any input.
		err := run(context.Background(), tc.args, iotest.ErrReader(errors.New("input read")), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-procs", "1024", "-gantt=false"}, strings.NewReader(sampleGraph), &out); err != nil {
		t.Errorf("-procs 1024: %v", err)
	}
}

// FuzzSimFlags: whatever the numeric flags, parsing never panics, and an
// accepted set has a processor count in [1, maxProcs] and finite -delta
// and -cthres.
func FuzzSimFlags(f *testing.F) {
	for _, seed := range [][3]string{
		{"4", "1.0", "1.25"}, {"900000000", "1", "1"}, {"0x10", "NaN", "1"}, {"1024", "1e308", "-Inf"},
		{"-1", "1e400", "0"}, {"1025", "inf", "+Inf"}, {"", "", ""}, {"9223372036854775808", "0x1p-2", "1_000"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, procs, delta, cthres string) {
		fl, err := parseFlags([]string{"-procs", procs, "-delta", delta, "-cthres", cthres}, io.Discard)
		if err != nil {
			return
		}
		if fl.procs < 1 || fl.procs > maxProcs {
			t.Fatalf("accepted -procs %q as %d", procs, fl.procs)
		}
		if math.IsNaN(fl.delta) || math.IsInf(fl.delta, 0) || math.IsNaN(fl.thres) || math.IsInf(fl.thres, 0) {
			t.Fatalf("accepted -delta %q -cthres %q as %v, %v", delta, cthres, fl.delta, fl.thres)
		}
	})
}

// TestRunHelp: -h and -help print the usage (to stderr) and succeed
// without reading a graph.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{arg}, iotest.ErrReader(errors.New("stdin read")), &buf); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s wrote output:\n%s", arg, buf.String())
		}
	}
}

func TestRunPolicies(t *testing.T) {
	for _, p := range []string{"EDF", "llf", "FIFO", "hlf"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-policy", p, "-gantt=false"}, strings.NewReader(sampleGraph), &out); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "nope"}, strings.NewReader(sampleGraph), &out); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunPreemptive(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-preempt", "-gantt=false"}, strings.NewReader(sampleGraph), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "preemptions") {
		t.Errorf("preemption count not reported:\n%s", out.String())
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-trace", path, "-gantt=false"}, strings.NewReader(sampleGraph), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		t.Errorf("trace not a JSON array: %q", string(data)[:20])
	}
	if !strings.Contains(out.String(), "trace written") {
		t.Error("trace path not reported")
	}
}

func TestRunStats(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-procs", "2", "-stats", "-gantt=false"}, strings.NewReader(sampleGraph), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage", "assign", "schedule", "measure"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-procs", "2", "-gantt=false", "-cpuprofile", path}, strings.NewReader(sampleGraph), &out)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty (err=%v)", err)
	}
}

func TestRunBadPprofAddr(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-pprof", "not-an-addr"}, strings.NewReader(sampleGraph), &out); err == nil {
		t.Fatal("bad pprof address accepted")
	}
}
