package generator

import (
	"fmt"

	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// Structured task-graph shapes. Section 8 of the paper lists in-tree,
// out-tree and fork-join graphs as structures on which AST should be
// evaluated; this file provides those generators plus chains and layered
// rectangles. Execution times, message sizes and deadlines are drawn from
// the same Config used by Random, so structured and random workloads are
// directly comparable.

// Shape names a structured task-graph family.
type Shape int

const (
	// ShapeChain is a purely sequential pipeline of subtasks.
	ShapeChain Shape = iota + 1
	// ShapeOutTree is a rooted tree fanning out from one input subtask.
	ShapeOutTree
	// ShapeInTree is a rooted tree converging into one output subtask.
	ShapeInTree
	// ShapeForkJoin alternates sequential stages with parallel sections
	// that fork from and join into single subtasks.
	ShapeForkJoin
	// ShapeLayered is a rectangle of width × depth subtasks where every
	// subtask feeds 1..MaxFanout subtasks of the next layer.
	ShapeLayered
)

// String returns the shape mnemonic used in experiment output.
func (s Shape) String() string {
	switch s {
	case ShapeChain:
		return "chain"
	case ShapeOutTree:
		return "out-tree"
	case ShapeInTree:
		return "in-tree"
	case ShapeForkJoin:
		return "fork-join"
	case ShapeLayered:
		return "layered"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// Shapes lists all structured families.
func Shapes() []Shape {
	return []Shape{ShapeChain, ShapeOutTree, ShapeInTree, ShapeForkJoin, ShapeLayered}
}

// StructuredConfig parameterizes a structured generator. Cost, message and
// deadline parameters come from the embedded workload Config; structural
// parameters are shape-specific.
type StructuredConfig struct {
	// Workload supplies MET, deviations, CCR and OLR. Its structural
	// bounds (subtask count, depth, fanout) are ignored except MaxFanout
	// for ShapeLayered.
	Workload Config
	// Shape selects the family.
	Shape Shape
	// Depth is the number of subtask levels (chain length, tree height,
	// number of fork-join stages, layer count). Must be >= 1.
	Depth int
	// Width is the branching factor (trees), parallel-section width
	// (fork-join) or layer width (layered). Ignored by ShapeChain.
	// Must be >= 1 for shapes that use it.
	Width int
}

// MaxStructuredSubtasks bounds a structured graph's subtask count, so a
// Depth and Width that would not fit in memory (or overflow the level
// arithmetic) are refused before anything is built.
const MaxStructuredSubtasks = 10000

// Validate reports whether Structured can build cfg: a valid Workload,
// Depth at least 1, Width at least 1 for shapes that use it, and at most
// MaxStructuredSubtasks subtasks.
func (cfg StructuredConfig) Validate() error {
	if err := cfg.Workload.Validate(); err != nil {
		return err
	}
	needsWidth := cfg.Shape != ShapeChain
	switch {
	case cfg.Depth < 1 || cfg.Depth > MaxStructuredSubtasks:
		return fmt.Errorf("structured depth %d: %w", cfg.Depth, errBadConfig)
	case needsWidth && (cfg.Width < 1 || cfg.Width > MaxStructuredSubtasks):
		return fmt.Errorf("structured width %d: %w", cfg.Width, errBadConfig)
	case cfg.maxSubtasks() > MaxStructuredSubtasks:
		return fmt.Errorf("structured %v depth %d width %d: over %d subtasks: %w",
			cfg.Shape, cfg.Depth, cfg.Width, MaxStructuredSubtasks, errBadConfig)
	}
	return nil
}

// maxSubtasks bounds the shape's subtask count from above, stopping just
// past MaxStructuredSubtasks. Depth and Width are at most that bound, so
// no product overflows.
func (cfg StructuredConfig) maxSubtasks() int {
	d, w := cfg.Depth, cfg.Width
	switch cfg.Shape {
	case ShapeForkJoin:
		return 1 + d*(w+1)
	case ShapeLayered:
		return d * w
	case ShapeOutTree, ShapeInTree:
		n, level := 0, 1
		for l := 0; l < d && n <= MaxStructuredSubtasks; l++ {
			n += level
			level *= w
		}
		return n
	}
	return d
}

// Structured generates one structured task graph.
func Structured(cfg StructuredConfig, src *rng.Source) (*taskgraph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	needsWidth := cfg.Shape != ShapeChain
	hint := cfg.Depth * 2 // chain: one subtask + one message per level
	if needsWidth {
		hint = cfg.Depth * cfg.Width * 3
	}
	s := &structuredBuilder{cfg: cfg.Workload, src: src, b: taskgraph.NewBuilderHint(hint)}
	switch cfg.Shape {
	case ShapeChain:
		s.chain(cfg.Depth)
	case ShapeOutTree:
		s.outTree(cfg.Depth, cfg.Width)
	case ShapeInTree:
		s.inTree(cfg.Depth, cfg.Width)
	case ShapeForkJoin:
		s.forkJoin(cfg.Depth, cfg.Width)
	case ShapeLayered:
		s.layered(cfg.Depth, cfg.Width)
	default:
		return nil, fmt.Errorf("unknown shape %v: %w", cfg.Shape, errBadConfig)
	}

	g, err := s.b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("generate %v graph: %w", cfg.Shape, err)
	}
	applyOLR(g, cfg.Workload)
	return g, nil
}

type structuredBuilder struct {
	cfg Config
	src *rng.Source
	b   *taskgraph.Builder
}

func (s *structuredBuilder) subtask() taskgraph.NodeID {
	c := s.src.Float64In(s.cfg.MET*(1-s.cfg.ExecDeviation), s.cfg.MET*(1+s.cfg.ExecDeviation))
	return s.b.AddSubtask("", c)
}

func (s *structuredBuilder) connect(u, v taskgraph.NodeID) {
	mean := s.cfg.MeanMessageSize()
	size := s.src.Float64In(mean*(1-s.cfg.MsgDeviation), mean*(1+s.cfg.MsgDeviation))
	s.b.Connect(u, v, size)
}

func (s *structuredBuilder) chain(n int) {
	prev := s.subtask()
	for i := 1; i < n; i++ {
		cur := s.subtask()
		s.connect(prev, cur)
		prev = cur
	}
}

func (s *structuredBuilder) outTree(depth, branch int) {
	frontier := []taskgraph.NodeID{s.subtask()}
	for l := 1; l < depth; l++ {
		var next []taskgraph.NodeID
		for _, u := range frontier {
			for k := 0; k < branch; k++ {
				v := s.subtask()
				s.connect(u, v)
				next = append(next, v)
			}
		}
		frontier = next
	}
}

func (s *structuredBuilder) inTree(depth, branch int) {
	// Build the widest level first, then converge.
	width := 1
	for l := 1; l < depth; l++ {
		width *= branch
	}
	frontier := make([]taskgraph.NodeID, width)
	for i := range frontier {
		frontier[i] = s.subtask()
	}
	// depth-1 converging levels: with branch 1 the tree is a chain.
	for l := 1; l < depth; l++ {
		next := make([]taskgraph.NodeID, len(frontier)/branch)
		for i := range next {
			v := s.subtask()
			for k := 0; k < branch; k++ {
				s.connect(frontier[i*branch+k], v)
			}
			next[i] = v
		}
		frontier = next
	}
}

func (s *structuredBuilder) forkJoin(stages, width int) {
	prev := s.subtask()
	for st := 0; st < stages; st++ {
		join := s.subtask()
		for w := 0; w < width; w++ {
			mid := s.subtask()
			s.connect(prev, mid)
			s.connect(mid, join)
		}
		prev = join
	}
}

func (s *structuredBuilder) layered(depth, width int) {
	maxFan := s.cfg.MaxFanout
	if maxFan < 1 {
		maxFan = 1
	}
	prev := make([]taskgraph.NodeID, width)
	for i := range prev {
		prev[i] = s.subtask()
	}
	for l := 1; l < depth; l++ {
		cur := make([]taskgraph.NodeID, width)
		for i := range cur {
			cur[i] = s.subtask()
		}
		covered := make([]bool, width)
		for _, u := range prev {
			k := s.src.IntIn(1, maxFan)
			if k > width {
				k = width
			}
			for _, pi := range s.src.Perm(width)[:k] {
				s.connect(u, cur[pi])
				covered[pi] = true
			}
		}
		for i, ok := range covered {
			if !ok {
				s.connect(prev[s.src.IntN(len(prev))], cur[i])
			}
		}
		prev = cur
	}
}
