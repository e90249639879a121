package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"deadlinedist/internal/taskgraph"
)

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("output is not a valid task graph: %v", err)
	}
	if n := g.NumSubtasks(); n < 40 || n > 60 {
		t.Errorf("generated %d subtasks, want the paper's 40-60", n)
	}
}

func TestRunDOTOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seed", "3", "-format", "dot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "digraph") {
		t.Errorf("DOT output malformed: %q", buf.String()[:20])
	}
}

func TestRunStructuredShapes(t *testing.T) {
	for _, shape := range []string{"chain", "out-tree", "in-tree", "fork-join", "layered"} {
		var buf bytes.Buffer
		if err := run([]string{"-shape", shape, "-depth", "3", "-width", "2"}, &buf); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if _, err := taskgraph.Decode(buf.Bytes()); err != nil {
			t.Fatalf("%s: invalid output: %v", shape, err)
		}
	}
}

func TestRunScenarios(t *testing.T) {
	for _, sc := range []string{"LDET", "mdet", "HDET"} {
		var buf bytes.Buffer
		if err := run([]string{"-scenario", sc}, &buf); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-seed", "9"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "9"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-scenario", "XXX"},
		{"-shape", "pentagon"},
		{"-format", "xml"},
		{"-met", "-5"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunPinnedFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-pinned", "1", "-pinprocs", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"pinned"`) {
		t.Error("no pinned subtasks in output despite -pinned 1")
	}
}

func TestRunOLRBasisFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-olrbasis", "path", "-seed", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := run([]string{"-olrbasis", "total", "-seed", "4"}, &buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() == buf2.String() {
		t.Error("OLR basis had no effect on deadlines")
	}
	var buf3 bytes.Buffer
	if err := run([]string{"-olrbasis", "zigzag"}, &buf3); err == nil {
		t.Error("unknown basis accepted")
	}
}

// TestRunRejectsOutOfRangeFlags: a non-finite or out-of-range number is a
// flag error naming the value, whatever the output format, never a graph
// or an encoder error.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"CCR NaN", []string{"-ccr", "NaN", "-format", "dot"}},
		{"CCR NaN", []string{"-ccr", "NaN"}},
		{"MET 1e+308", []string{"-met", "1e308", "-ccr", "1e308"}},
		{"OLR +Inf", []string{"-olr", "+Inf"}},
		{"pinned fraction 1.5", []string{"-pinned", "1.5"}},
		{"-pinprocs 100000", []string{"-pinprocs", "100000"}},
		{"-depth 0", []string{"-shape", "chain", "-depth", "0"}},
		{"-width -3", []string{"-shape", "layered", "-width", "-3"}},
		{"over 10000 subtasks", []string{"-shape", "out-tree", "-depth", "40", "-width", "3"}},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err %v, want an error naming %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("args %v: wrote %d bytes", tc.args, buf.Len())
		}
	}
}

// FuzzGenFlags: whatever the numeric flags, parsing never panics, and a
// set it accepts generates a graph whose JSON encodes and decodes.
func FuzzGenFlags(f *testing.F) {
	for _, seed := range []struct {
		ccr, olr, met, pinned, depth, width, pinprocs string
		shape                                         uint8
	}{
		{"1.0", "1.5", "20", "0", "6", "3", "2", 0},
		{"NaN", "1.5", "20", "0", "6", "3", "2", 1},
		{"1e308", "1.5", "1e308", "0", "6", "3", "2", 0},
		{"1e6", "1e6", "1e6", "1", "4", "4", "1024", 4},
		{"0", "inf", "-1", "0.5", "30", "3", "-1", 2},
		{"0x1p-2", "1_000", "", "NaN", "9", "3", "0", 3},
		{"1", "1", "1", "0.25", "100", "100", "7", 5},
	} {
		f.Add(seed.ccr, seed.olr, seed.met, seed.pinned, seed.depth, seed.width, seed.pinprocs, seed.shape)
	}
	shapes := []string{"random", "chain", "out-tree", "in-tree", "fork-join", "layered"}
	f.Fuzz(func(t *testing.T, ccr, olr, met, pinned, depth, width, pinprocs string, shape uint8) {
		fl, err := parseFlags([]string{"-ccr", ccr, "-olr", olr, "-met", met, "-pinned", pinned,
			"-depth", depth, "-width", width, "-pinprocs", pinprocs,
			"-shape", shapes[int(shape)%len(shapes)]}, io.Discard)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := fl.write(&buf); err != nil {
			t.Fatalf("accepted flags failed to generate: %v", err)
		}
		if _, err := taskgraph.Decode(buf.Bytes()); err != nil {
			t.Fatalf("accepted flags wrote an undecodable graph: %v", err)
		}
	})
}
