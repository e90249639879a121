// Command dlgen generates task-graph workloads in the paper's Section 5.2
// style (or structured shapes) and writes them as JSON or Graphviz DOT.
//
// Usage:
//
//	dlgen -seed 7 > graph.json
//	dlgen -scenario HDET -format dot | dot -Tpng > graph.png
//	dlgen -shape fork-join -depth 6 -width 4 > fj.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dlgen:", err)
		os.Exit(1)
	}
}

// maxProcs bounds -pinprocs as dlsim bounds -procs.
const maxProcs = 1024

// genFlags are dlgen's flags, parsed and validated.
type genFlags struct {
	seed   uint64
	format string
	// structured describes the graph for a structured -shape; nil for
	// the random family, which is described by cfg alone.
	structured *generator.StructuredConfig
	cfg        generator.Config
}

// parseFlags parses args, writing usage and parse errors to usage, and
// validates them before anything is generated: the workload flags must
// make a valid generator.Config (finite, in range, -met, -ccr and -olr
// at most generator.MaxScale), -pinprocs must be at most maxProcs, and a
// structured -shape with its -depth and -width a valid
// generator.StructuredConfig (at most generator.MaxStructuredSubtasks
// subtasks).
func parseFlags(args []string, usage io.Writer) (*genFlags, error) {
	var f genFlags
	fs := flag.NewFlagSet("dlgen", flag.ContinueOnError)
	fs.SetOutput(usage)
	fs.Uint64Var(&f.seed, "seed", 1, "random seed")
	scenario := fs.String("scenario", "MDET", "execution-time scenario: LDET, MDET or HDET")
	shape := fs.String("shape", "random", "graph family: random, chain, out-tree, in-tree, fork-join, layered")
	depth := fs.Int("depth", 6, "structured shapes: subtask levels")
	width := fs.Int("width", 3, "structured shapes: branching / section width")
	ccr := fs.Float64("ccr", 1.0, "communication-to-computation cost ratio")
	olr := fs.Float64("olr", 1.5, "overall laxity ratio for end-to-end deadlines")
	met := fs.Float64("met", 20, "mean subtask execution time")
	pinned := fs.Float64("pinned", 0, "fraction of boundary subtasks with strict locality constraints")
	pinprocs := fs.Int("pinprocs", 2, fmt.Sprintf("processor pool pinned subtasks draw from (0 to %d)", maxProcs))
	basis := fs.String("olrbasis", "total", "end-to-end deadline basis: total (workload) or path (longest path)")
	fs.StringVar(&f.format, "format", "json", "output format: json or dot")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	sc, err := parseScenario(*scenario)
	if err != nil {
		return nil, err
	}
	f.cfg = generator.Default(sc)
	f.cfg.CCR, f.cfg.OLR, f.cfg.MET = *ccr, *olr, *met
	f.cfg.PinnedFraction, f.cfg.PinnedProcs = *pinned, *pinprocs
	switch *basis {
	case "total":
		f.cfg.Basis = generator.OLRTotalWork
	case "path":
		f.cfg.Basis = generator.OLRLongestPath
	default:
		return nil, fmt.Errorf("unknown OLR basis %q (want total or path)", *basis)
	}
	if err := f.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("workload flags: %w", err)
	}
	if *pinprocs > maxProcs {
		return nil, fmt.Errorf("-pinprocs %d: must be in [0, %d]", *pinprocs, maxProcs)
	}
	if *shape == "random" {
		return &f, nil
	}
	for _, s := range generator.Shapes() {
		if s.String() == *shape {
			f.structured = &generator.StructuredConfig{Workload: f.cfg, Shape: s, Depth: *depth, Width: *width}
			if err := f.structured.Validate(); err != nil {
				return nil, fmt.Errorf("-depth %d -width %d: %w", *depth, *width, err)
			}
			return &f, nil
		}
	}
	return nil, fmt.Errorf("unknown shape %q", *shape)
}

func run(args []string, out io.Writer) error {
	f, err := parseFlags(args, os.Stderr)
	if err != nil {
		return err
	}
	return f.write(out)
}

// write generates the graph f describes and writes it to out.
func (f *genFlags) write(out io.Writer) error {
	var (
		g   *taskgraph.Graph
		err error
	)
	if f.structured != nil {
		g, err = generator.Structured(*f.structured, rng.New(f.seed))
	} else {
		g, err = generator.Random(f.cfg, rng.New(f.seed))
	}
	if err != nil {
		return err
	}

	switch f.format {
	case "json":
		data, err := g.MarshalJSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(data))
		return err
	case "dot":
		_, err := io.WriteString(out, g.DOT())
		return err
	default:
		return fmt.Errorf("unknown format %q", f.format)
	}
}

func parseScenario(name string) (generator.Scenario, error) {
	for _, s := range generator.Scenarios() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return generator.Scenario{}, fmt.Errorf("unknown scenario %q (want LDET, MDET or HDET)", name)
}
