// Package platform models the target multiprocessor architecture of
// Jonsson & Shin (ICDCS 1997, Section 5.1): a homogeneous multiprocessor
// (2-16 processors in the paper's experiments) connected by a
// time-multiplexed shared bus whose cost is one time unit per transmitted
// data item. Communication between subtasks on the same processor goes via
// shared memory at negligible cost, and network communication proceeds
// concurrently with processor computation.
//
// Beyond the paper's base platform, the package provides the alternative
// interconnection topologies (full mesh, ring, star) used by the Section 8
// topology sweep, an optional contended-bus mode (base model is
// contention-free; contention-based communication scheduling is the paper's
// future work), and heterogeneous processor speeds as an extension.
package platform

import (
	"errors"
	"fmt"
	"math"
)

// Topology computes point-to-point communication costs between processors.
type Topology interface {
	// Name returns a short mnemonic used in experiment output.
	Name() string
	// CommCost returns the time to transfer size data items from processor
	// from to processor to. Implementations must return 0 when from == to.
	CommCost(from, to int, size float64) float64
}

// SharedBus is the paper's base interconnect: a time-multiplexed bus with a
// fixed per-item cost between any two distinct processors.
type SharedBus struct {
	// PerItemCost is the bus cost of one data item (paper: 1 time unit).
	PerItemCost float64
}

var _ Topology = SharedBus{}

// Name implements Topology.
func (SharedBus) Name() string { return "shared-bus" }

// CommCost implements Topology.
func (b SharedBus) CommCost(from, to int, size float64) float64 {
	if from == to {
		return 0
	}
	return b.PerItemCost * size
}

// FullMesh models dedicated point-to-point links between every processor
// pair. Per-message cost equals the shared bus; the difference appears only
// under contention (links never contend with each other).
type FullMesh struct {
	// PerItemCost is the link cost of one data item.
	PerItemCost float64
}

var _ Topology = FullMesh{}

// Name implements Topology.
func (FullMesh) Name() string { return "full-mesh" }

// CommCost implements Topology.
func (m FullMesh) CommCost(from, to int, size float64) float64 {
	if from == to {
		return 0
	}
	return m.PerItemCost * size
}

// Ring models a bidirectional ring: the cost is proportional to the minimum
// hop distance between the processors.
type Ring struct {
	// NumProcs is the ring size.
	NumProcs int
	// PerItemCost is the per-hop cost of one data item.
	PerItemCost float64
}

var _ Topology = Ring{}

// Name implements Topology.
func (Ring) Name() string { return "ring" }

// CommCost implements Topology.
func (r Ring) CommCost(from, to int, size float64) float64 {
	if from == to {
		return 0
	}
	d := from - to
	if d < 0 {
		d = -d
	}
	if w := r.NumProcs - d; w < d {
		d = w
	}
	return float64(d) * r.PerItemCost * size
}

// Star routes every message through a central switch, costing two hops
// between any two distinct processors.
type Star struct {
	// PerItemCost is the per-hop cost of one data item.
	PerItemCost float64
}

var _ Topology = Star{}

// Name implements Topology.
func (Star) Name() string { return "star" }

// CommCost implements Topology.
func (s Star) CommCost(from, to int, size float64) float64 {
	if from == to {
		return 0
	}
	return 2 * s.PerItemCost * size
}

// System describes one concrete platform instance: a processor count,
// per-processor speeds and an interconnect.
type System struct {
	numProcs   int
	speeds     []float64
	topo       Topology
	contention bool
}

// Errors returned by New.
var (
	ErrNoProcs   = errors.New("platform needs at least one processor")
	ErrBadSpeeds = errors.New("speed vector length must equal processor count, all speeds finite and > 0")
	// ErrBadCommCost refuses a SharedBus, FullMesh, Ring or Star whose
	// per-item cost is negative or not finite.
	ErrBadCommCost = errors.New("per-item communication cost must be finite and >= 0")
)

// Option configures a System.
type Option func(*System)

// WithTopology selects the interconnect (default: SharedBus{PerItemCost: 1}).
func WithTopology(t Topology) Option {
	return func(s *System) { s.topo = t }
}

// WithSpeeds makes the platform heterogeneous: processor p runs cost c in
// c/speeds[p] time. The default is homogeneous unit speed.
func WithSpeeds(speeds []float64) Option {
	return func(s *System) { s.speeds = append([]float64(nil), speeds...) }
}

// WithBusContention enables serialization of messages on a single shared
// communication resource (an extension; the paper's base model is
// contention-free).
func WithBusContention() Option {
	return func(s *System) { s.contention = true }
}

// New returns a platform with n processors. Without options it is the
// paper's platform: homogeneous, shared bus, one time unit per data item,
// no contention.
func New(n int, opts ...Option) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("%d processors: %w", n, ErrNoProcs)
	}
	s := &System{numProcs: n, topo: SharedBus{PerItemCost: 1}}
	for _, opt := range opts {
		opt(s)
	}
	if s.speeds == nil {
		s.speeds = make([]float64, n)
		for i := range s.speeds {
			s.speeds[i] = 1
		}
	}
	if len(s.speeds) != n {
		return nil, fmt.Errorf("%d speeds for %d processors: %w", len(s.speeds), n, ErrBadSpeeds)
	}
	for _, v := range s.speeds {
		if !(v > 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("speed %v: %w", v, ErrBadSpeeds)
		}
	}
	if c, ok := perItemCost(s.topo); ok && !(c >= 0 && c <= math.MaxFloat64) {
		return nil, fmt.Errorf("%s per-item cost %v: %w", s.topo.Name(), c, ErrBadCommCost)
	}
	return s, nil
}

// perItemCost returns the per-item cost of this package's topologies; ok
// is false for a topology defined elsewhere.
func perItemCost(t Topology) (c float64, ok bool) {
	switch t := t.(type) {
	case SharedBus:
		return t.PerItemCost, true
	case FullMesh:
		return t.PerItemCost, true
	case Ring:
		return t.PerItemCost, true
	case Star:
		return t.PerItemCost, true
	}
	return 0, false
}

// NumProcs returns the processor count.
func (s *System) NumProcs() int { return s.numProcs }

// Topology returns the interconnect.
func (s *System) Topology() Topology { return s.topo }

// BusContention reports whether messages serialize on a shared bus.
func (s *System) BusContention() bool { return s.contention }

// Speed returns the relative speed of processor p (1 = nominal).
func (s *System) Speed(p int) float64 { return s.speeds[p] }

// ExecTime returns how long a subtask of worst-case cost c runs on
// processor p.
func (s *System) ExecTime(c float64, p int) float64 { return c / s.speeds[p] }

// CommCost returns the transfer time for size data items from processor
// from to processor to (0 when co-located).
func (s *System) CommCost(from, to int, size float64) float64 {
	return s.topo.CommCost(from, to, size)
}

// Homogeneous reports whether all processors share the same speed.
func (s *System) Homogeneous() bool {
	for _, v := range s.speeds[1:] {
		if v != s.speeds[0] {
			return false
		}
	}
	return true
}

// Class is a platform's identity up to its processor count: its
// interconnect, its one processor speed and its contention mode. Two
// systems of one class and one processor count cost every computation and
// every message alike. Classes are comparable, so they can key a cache.
type Class struct {
	topo       Topology
	speed      float64
	contention bool
}

// Class returns the system's class. ok is false for heterogeneous speeds,
// which one speed cannot describe, and for a topology defined outside this
// package, whose values need not be comparable. New refuses NaN speeds and
// per-item costs, so a class always equals itself.
func (s *System) Class() (c Class, ok bool) {
	if _, ok := perItemCost(s.topo); !ok || !s.Homogeneous() {
		return Class{}, false
	}
	return Class{topo: s.topo, speed: s.speeds[0], contention: s.contention}, true
}

// Interchangeable reports whether the class's processors are alike: one
// speed (every class has one) and an interconnect whose cost between two
// distinct processors ignores which they are (SharedBus, FullMesh, Star).
// A Ring's cost grows with the hop distance, so its processors differ.
func (c Class) Interchangeable() bool {
	switch c.topo.(type) {
	case SharedBus, FullMesh, Star:
		return true
	}
	return false
}
