package deadlinedist

import (
	"deadlinedist/internal/analysis"
	"deadlinedist/internal/apps"
	"deadlinedist/internal/assign"
	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/improve"
	"deadlinedist/internal/periodic"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/strategy"
	"deadlinedist/internal/taskgraph"
)

// Task graph model (see internal/taskgraph).
type (
	// Graph is an immutable directed acyclic task graph of subtasks and
	// communication subtasks.
	Graph = taskgraph.Graph
	// GraphBuilder incrementally constructs a Graph.
	GraphBuilder = taskgraph.Builder
	// Node is one vertex: an ordinary subtask or a communication subtask.
	Node = taskgraph.Node
	// NodeID identifies a node within a Graph.
	NodeID = taskgraph.NodeID
	// Kind distinguishes subtasks from communication subtasks.
	Kind = taskgraph.Kind
)

// Node kinds.
const (
	KindSubtask = taskgraph.KindSubtask
	KindMessage = taskgraph.KindMessage
)

// NewGraphBuilder returns an empty task-graph builder.
func NewGraphBuilder() *GraphBuilder { return taskgraph.NewBuilder() }

// DecodeGraph parses a task graph from its JSON interchange form.
func DecodeGraph(data []byte) (*Graph, error) { return taskgraph.Decode(data) }

// Platform model (see internal/platform).
type (
	// System is a concrete multiprocessor platform.
	System = platform.System
	// SystemOption configures a System.
	SystemOption = platform.Option
	// Topology computes inter-processor communication costs.
	Topology = platform.Topology
	// SharedBus is the paper's base interconnect.
	SharedBus = platform.SharedBus
	// FullMesh models dedicated point-to-point links.
	FullMesh = platform.FullMesh
	// Ring models a bidirectional ring with per-hop costs.
	Ring = platform.Ring
	// Star routes all traffic through a central switch.
	Star = platform.Star
)

// NewSystem returns a platform with n processors; without options it is the
// paper's platform (homogeneous, contention-free shared bus, one time unit
// per data item).
func NewSystem(n int, opts ...SystemOption) (*System, error) { return platform.New(n, opts...) }

// WithTopology selects the interconnect.
func WithTopology(t Topology) SystemOption { return platform.WithTopology(t) }

// WithSpeeds makes the platform heterogeneous (extension).
func WithSpeeds(speeds []float64) SystemOption { return platform.WithSpeeds(speeds) }

// WithBusContention serializes messages on a single shared bus (extension).
func WithBusContention() SystemOption { return platform.WithBusContention() }

// Deadline distribution — the paper's contribution (see internal/core).
type (
	// Metric ranks candidate critical paths and sizes execution windows.
	Metric = core.Metric
	// CommEstimator predicts communication costs before assignment.
	CommEstimator = core.CommEstimator
	// Distributor runs the slicing algorithm of the paper's Figure 1.
	Distributor = core.Distributor
	// Result is the annotated task graph: releases, deadlines, windows.
	Result = core.Result
	// Scratch is a reusable distributor working set, the last argument of
	// Assigner.Assign.
	Scratch = core.Scratch
)

// NORM returns the BST normalized-laxity-ratio metric (slack proportional
// to execution time).
func NORM() Metric { return core.NORM() }

// PURE returns the BST pure-laxity-ratio metric (equal slack shares).
func PURE() Metric { return core.PURE() }

// THRES returns the AST threshold metric with surplus factor delta and the
// execution-time threshold at thresFactor × mean subtask execution time.
func THRES(delta, thresFactor float64) Metric { return core.THRES(delta, thresFactor) }

// ADAPT returns the AST adaptive metric (surplus ξ/N_proc) with the
// execution-time threshold at thresFactor × mean subtask execution time.
// The paper uses thresFactor = 1.25.
func ADAPT(thresFactor float64) Metric { return core.ADAPT(thresFactor) }

// ADAPTAblation returns an ADAPT variant whose virtual execution times
// apply to critical-path ranking and/or window sizing (extension X6:
// isolating which ingredient of AST produces its gains). (true, true) is
// exactly ADAPT; (false, false) is exactly PURE.
func ADAPTAblation(thresFactor float64, rank, window bool) Metric {
	return core.ADAPTAblation(thresFactor, rank, window)
}

// CCNE assumes communication costs never materialize (the paper's best
// estimation strategy).
func CCNE() CommEstimator { return core.CCNE() }

// CCAA always assumes inter-processor communication.
func CCAA() CommEstimator { return core.CCAA() }

// CCEXP charges the expected cost under uniformly random placement
// (extension).
func CCEXP() CommEstimator { return core.CCEXP() }

// Distribute partitions every end-to-end deadline of g into per-subtask
// release times and local deadlines using metric m and communication-cost
// estimator e. It never modifies g.
func Distribute(g *Graph, sys *System, m Metric, e CommEstimator) (*Result, error) {
	return Distributor{Metric: m, Estimator: e}.Distribute(g, sys)
}

// Baseline one-pass assignment strategies (see internal/strategy).
type (
	// Strategy is a one-pass deadline-assignment baseline.
	Strategy = strategy.Strategy
)

// UltimateDeadline returns the UD baseline.
func UltimateDeadline() Strategy { return strategy.UD() }

// EffectiveDeadline returns the ED baseline.
func EffectiveDeadline() Strategy { return strategy.ED() }

// EqualSlack returns the EQS baseline.
func EqualSlack() Strategy { return strategy.EQS() }

// EqualFlexibility returns the EQF baseline.
func EqualFlexibility() Strategy { return strategy.EQF() }

// Scheduling (see internal/scheduler).
type (
	// ScheduleResult is the outcome of one list-scheduling run.
	ScheduleResult = scheduler.Schedule
	// SchedulerConfig tunes the list scheduler and selects its run-time
	// model (Preemptive) and message model (Network).
	SchedulerConfig = scheduler.Config
	// DispatchPolicy is the priority rule used among schedulable subtasks.
	DispatchPolicy = scheduler.Policy
	// ExecSegment is one uninterrupted execution burst (preemptive runs).
	ExecSegment = scheduler.Segment
)

// Dispatch policies (paper: EDF; the others are the Section 8 exploration).
const (
	PolicyEDF  = scheduler.PolicyEDF
	PolicyLLF  = scheduler.PolicyLLF
	PolicyFIFO = scheduler.PolicyFIFO
	PolicyHLF  = scheduler.PolicyHLF
)

// Schedule runs the paper's deadline-driven list scheduler: EDF selection
// over schedulable subtasks, earliest-start-time processor choice,
// non-preemptive execution. cfg selects the Section 8 variants:
// Preemptive re-simulates the placement under preemptive EDF (the result
// carries execution Segments), and Network routes messages over a
// multihop network's contended, deadline-scheduled links (the result
// carries per-message Hops).
func Schedule(g *Graph, sys *System, res *Result, cfg SchedulerConfig) (*ScheduleResult, error) {
	return scheduler.Run(g, sys, res, cfg)
}

// ValidateSchedule checks the structural soundness of a schedule produced
// under cfg: placement, overlap-freedom, precedence + communication delays,
// and the model's own resources (bus exclusivity, execution segments, or
// route adherence and link exclusivity).
func ValidateSchedule(g *Graph, sys *System, res *Result, s *ScheduleResult, cfg SchedulerConfig) error {
	return scheduler.Validate(g, sys, res, s, cfg)
}

// Gantt renders a per-processor ASCII Gantt chart of a schedule.
func Gantt(g *Graph, sys *System, s *ScheduleResult, width int) string {
	return scheduler.Gantt(g, sys, s, width)
}

// Workload generation (see internal/generator).
type (
	// WorkloadConfig parameterizes the random task-graph generator.
	WorkloadConfig = generator.Config
	// Scenario names an execution-time distribution scenario.
	Scenario = generator.Scenario
	// StructuredConfig parameterizes the structured-shape generators.
	StructuredConfig = generator.StructuredConfig
	// Shape names a structured task-graph family.
	Shape = generator.Shape
	// RandomSource is the deterministic random source driving generation.
	RandomSource = rng.Source
)

// The paper's execution-time scenarios.
var (
	// LDET deviates execution times by at most ±25% around the mean.
	LDET = generator.LDET
	// MDET deviates execution times by at most ±50% around the mean.
	MDET = generator.MDET
	// HDET deviates execution times by at most ±99% around the mean.
	HDET = generator.HDET
)

// Structured shapes.
const (
	ShapeChain    = generator.ShapeChain
	ShapeOutTree  = generator.ShapeOutTree
	ShapeInTree   = generator.ShapeInTree
	ShapeForkJoin = generator.ShapeForkJoin
	ShapeLayered  = generator.ShapeLayered
)

// NewRandomSource returns a deterministic, splittable random source.
func NewRandomSource(seed uint64) *RandomSource { return rng.New(seed) }

// DefaultWorkload returns the paper's Section 5.2 workload configuration
// under the given execution-time scenario.
func DefaultWorkload(s Scenario) WorkloadConfig { return generator.Default(s) }

// RandomGraph generates one random layered task graph.
func RandomGraph(cfg WorkloadConfig, src *RandomSource) (*Graph, error) {
	return generator.Random(cfg, src)
}

// StructuredGraph generates one structured task graph (chain, trees,
// fork-join, layered).
func StructuredGraph(cfg StructuredConfig, src *RandomSource) (*Graph, error) {
	return generator.Structured(cfg, src)
}

// Multihop real-time channels (see internal/channel; reference [13]). A
// Network set in SchedulerConfig.Network carries Schedule's messages.
type (
	// Network is a multihop interconnect with contended,
	// deadline-scheduled links.
	Network = channel.Network
	// LinkID indexes a link within a Network.
	LinkID = channel.LinkID
	// Hop is one reserved link transfer of a message.
	Hop = scheduler.Hop
)

// BusNetwork returns a single shared medium (the paper's bus, as a
// contended link).
func BusNetwork(n int, perItem float64) (*Network, error) { return channel.Bus(n, perItem) }

// RingNetwork returns a bidirectional ring with minimum-hop routes.
func RingNetwork(n int, perItem float64) (*Network, error) { return channel.Ring(n, perItem) }

// StarNetwork returns a hub-and-spoke network (two hops between any pair).
func StarNetwork(n int, perItem float64) (*Network, error) { return channel.Star(n, perItem) }

// MeshNetwork returns dedicated point-to-point links per ordered pair.
func MeshNetwork(n int, perItem float64) (*Network, error) { return channel.Mesh(n, perItem) }

// CCHOP returns the real-time-channel estimation strategy: each message is
// charged its size times the network's mean uncontended route cost.
func CCHOP(net *Network) CommEstimator { return core.CCHOP(net) }

// Task assignment (see internal/assign).
type (
	// Assignment maps every ordinary subtask to a processor.
	Assignment = assign.Assignment
)

// ClusterAssignment computes a static task assignment via load-capped
// Sarkar-style edge-zeroing clustering — the "conventional order" baseline.
func ClusterAssignment(g *Graph, sys *System) (Assignment, error) {
	return assign.Cluster(g, sys)
}

// ApplyAssignment returns a clone of g with every subtask pinned to its
// assigned processor (a strict-locality graph).
func ApplyAssignment(g *Graph, a Assignment) (*Graph, error) { return assign.Apply(g, a) }

// CCKnown returns the strict-locality communication estimator: message
// costs are exact under the given assignment (nil reads the graph's pins).
func CCKnown(a Assignment) CommEstimator { return core.CCKnown(a) }

// Benchmark applications (see internal/apps).
type (
	// BenchmarkApp is one realistic benchmark application.
	BenchmarkApp = apps.App
)

// BenchmarkApps returns the realistic benchmark applications (autonomous
// driving, satellite AOCS, industrial cell) — Section 8's "larger
// applications", with strict locality constraints on their I/O subtasks.
func BenchmarkApps() []BenchmarkApp { return apps.All() }

// Iterative improvement (see internal/improve; reference [3] flavour).
type (
	// ImproveConfig tunes the iterative improvement loop.
	ImproveConfig = improve.Config
	// ImproveResult reports an improvement outcome.
	ImproveResult = improve.Result
)

// Improve iteratively reshapes a distribution's windows toward the
// binding subtask (schedule, find the maximum-lateness subtask, transfer
// slack to it along its sliced path, repeat), returning the best
// assignment seen. The input is never modified.
func Improve(g *Graph, sys *System, res *Result, cfg ImproveConfig) (*ImproveResult, error) {
	return improve.Run(g, sys, res, cfg)
}

// Feasibility analysis (see internal/analysis).
type (
	// Feasibility reports necessary schedulability conditions.
	Feasibility = analysis.Feasibility
)

// CheckFeasibility evaluates necessary schedulability conditions (critical
// path vs deadlines, aggregate capacity, pinned per-processor load); a
// workload failing any of them cannot be scheduled on sys by any method.
func CheckFeasibility(g *Graph, sys *System) Feasibility {
	return analysis.CheckFeasibility(g, sys)
}

// Periodic applications (see internal/periodic).
type (
	// PeriodicTask is a periodic task template (graph + period +
	// relative deadline).
	PeriodicTask = periodic.Task
)

// Hyperperiod returns the least common multiple of the task periods.
func Hyperperiod(tasks []PeriodicTask) (int, error) { return periodic.Hyperperiod(tasks) }

// UnrollPeriodic expands a periodic task set over one hyperperiod into the
// non-periodic task graph the distribution algorithms operate on
// (paper Section 3).
func UnrollPeriodic(tasks []PeriodicTask) (*Graph, int, error) { return periodic.Unroll(tasks) }

// PeriodicUtilization returns the processor demand Σ workload/period.
func PeriodicUtilization(tasks []PeriodicTask) (float64, error) {
	return periodic.Utilization(tasks)
}

// Experiment harness (see internal/experiment).
type (
	// Experiment parameterizes one harness run.
	Experiment = experiment.Config
	// ExperimentTable is one reproduced chart.
	ExperimentTable = experiment.Table
	// Assigner abstracts a deadline-assignment strategy for the harness.
	Assigner = experiment.Assigner
)

// DefaultExperiment returns the paper's experimental setup (Section 5) for
// the given scenario: 128 graphs, 2–16 processors, contention-free shared
// bus, time-driven dispatch.
func DefaultExperiment(s Scenario) Experiment { return experiment.Default(s) }

// Slicing wraps a metric and an estimator as a harness strategy.
func Slicing(m Metric, e CommEstimator) Assigner { return experiment.Slicing(m, e) }

// Baseline wraps a one-pass strategy for the harness.
func Baseline(s Strategy) Assigner { return experiment.Baseline(s) }

// Figures returns the registry of reproducible experiments (paper figures,
// Section 8 sweeps and extensions), keyed as in DESIGN.md §4.
func Figures() map[string]experiment.FigureFunc { return experiment.Figures() }

// FigureOrder lists the registry keys in presentation order.
func FigureOrder() []string { return experiment.FigureOrder() }
