package platform

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	s, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumProcs() != 4 {
		t.Errorf("NumProcs = %d, want 4", s.NumProcs())
	}
	if !s.Homogeneous() {
		t.Error("default system should be homogeneous")
	}
	if s.BusContention() {
		t.Error("default system should be contention-free")
	}
	if s.Topology().Name() != "shared-bus" {
		t.Errorf("default topology = %q, want shared-bus", s.Topology().Name())
	}
	if got := s.CommCost(0, 1, 20); got != 20 {
		t.Errorf("CommCost(0,1,20) = %v, want 20 (1 unit per item)", got)
	}
	if got := s.CommCost(2, 2, 20); got != 0 {
		t.Errorf("CommCost(2,2,20) = %v, want 0 (co-located)", got)
	}
	if got := s.ExecTime(15, 3); got != 15 {
		t.Errorf("ExecTime(15,3) = %v, want 15", got)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0); !errors.Is(err, ErrNoProcs) {
		t.Errorf("New(0) = %v, want ErrNoProcs", err)
	}
	if _, err := New(-3); !errors.Is(err, ErrNoProcs) {
		t.Errorf("New(-3) = %v, want ErrNoProcs", err)
	}
	if _, err := New(2, WithSpeeds([]float64{1})); !errors.Is(err, ErrBadSpeeds) {
		t.Errorf("mismatched speeds = %v, want ErrBadSpeeds", err)
	}
	if _, err := New(2, WithSpeeds([]float64{1, 0})); !errors.Is(err, ErrBadSpeeds) {
		t.Errorf("zero speed = %v, want ErrBadSpeeds", err)
	}
	if _, err := New(2, WithSpeeds([]float64{1, -2})); !errors.Is(err, ErrBadSpeeds) {
		t.Errorf("negative speed = %v, want ErrBadSpeeds", err)
	}
}

// TestNewRefusesNonFiniteParameters is the regression test for platforms
// New used to accept: a NaN speed (v <= 0 is false for NaN) and a NaN,
// infinite or negative per-item cost. The scheduler would run on them,
// and a NaN would make the platform's class unequal to itself.
func TestNewRefusesNonFiniteParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, speeds := range [][]float64{{nan, 1}, {1, inf}, {-inf, 1}} {
		if _, err := New(2, WithSpeeds(speeds)); !errors.Is(err, ErrBadSpeeds) {
			t.Errorf("speeds %v = %v, want ErrBadSpeeds", speeds, err)
		}
	}
	for _, cost := range []float64{-1, nan, inf, -inf} {
		for _, topo := range []Topology{
			SharedBus{PerItemCost: cost},
			FullMesh{PerItemCost: cost},
			Ring{NumProcs: 2, PerItemCost: cost},
			Star{PerItemCost: cost},
		} {
			if _, err := New(2, WithTopology(topo)); !errors.Is(err, ErrBadCommCost) {
				t.Errorf("%s cost %v = %v, want ErrBadCommCost", topo.Name(), cost, err)
			}
		}
	}
	// Zero cost (free communication) and a topology defined elsewhere stay
	// accepted.
	for _, topo := range []Topology{SharedBus{}, ownTopology{}} {
		if _, err := New(2, WithTopology(topo)); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// ownTopology is a topology defined outside the package's four.
type ownTopology struct{}

func (ownTopology) Name() string                         { return "own" }
func (ownTopology) CommCost(_, _ int, _ float64) float64 { return 0 }

func TestHeterogeneousSpeeds(t *testing.T) {
	s, err := New(2, WithSpeeds([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Homogeneous() {
		t.Error("system with speeds {1,2} reported homogeneous")
	}
	if got := s.ExecTime(10, 0); got != 10 {
		t.Errorf("ExecTime on unit proc = %v, want 10", got)
	}
	if got := s.ExecTime(10, 1); got != 5 {
		t.Errorf("ExecTime on 2x proc = %v, want 5", got)
	}
	if got := s.Speed(1); got != 2 {
		t.Errorf("Speed(1) = %v, want 2", got)
	}
}

func TestWithSpeedsCopiesInput(t *testing.T) {
	speeds := []float64{1, 1}
	s, err := New(2, WithSpeeds(speeds))
	if err != nil {
		t.Fatal(err)
	}
	speeds[0] = 99
	if s.Speed(0) != 1 {
		t.Error("WithSpeeds did not copy the slice")
	}
}

func TestBusContentionOption(t *testing.T) {
	s, err := New(2, WithBusContention())
	if err != nil {
		t.Fatal(err)
	}
	if !s.BusContention() {
		t.Error("WithBusContention not applied")
	}
}

func TestSharedBus(t *testing.T) {
	b := SharedBus{PerItemCost: 2}
	if got := b.CommCost(0, 1, 10); got != 20 {
		t.Errorf("CommCost = %v, want 20", got)
	}
	if got := b.CommCost(1, 1, 10); got != 0 {
		t.Errorf("co-located CommCost = %v, want 0", got)
	}
}

func TestFullMesh(t *testing.T) {
	m := FullMesh{PerItemCost: 1}
	if m.Name() != "full-mesh" {
		t.Errorf("Name = %q", m.Name())
	}
	if got := m.CommCost(0, 3, 7); got != 7 {
		t.Errorf("CommCost = %v, want 7", got)
	}
	if got := m.CommCost(3, 3, 7); got != 0 {
		t.Errorf("co-located CommCost = %v, want 0", got)
	}
}

func TestRing(t *testing.T) {
	r := Ring{NumProcs: 8, PerItemCost: 1}
	cases := []struct {
		from, to int
		want     float64
	}{
		{0, 0, 0},
		{0, 1, 10}, // 1 hop
		{0, 4, 40}, // 4 hops (diameter)
		{0, 7, 10}, // wraps: 1 hop
		{2, 6, 40}, // 4 hops
		{6, 2, 40}, // symmetric
		{1, 7, 20}, // wraps: 2 hops
	}
	for _, c := range cases {
		if got := r.CommCost(c.from, c.to, 10); got != c.want {
			t.Errorf("Ring.CommCost(%d,%d,10) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestRingSymmetry(t *testing.T) {
	r := Ring{NumProcs: 6, PerItemCost: 1}
	f := func(a, b uint8) bool {
		from, to := int(a%6), int(b%6)
		return r.CommCost(from, to, 5) == r.CommCost(to, from, 5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStar(t *testing.T) {
	s := Star{PerItemCost: 1}
	if got := s.CommCost(0, 1, 10); got != 20 {
		t.Errorf("Star.CommCost = %v, want 20 (two hops)", got)
	}
	if got := s.CommCost(4, 4, 10); got != 0 {
		t.Errorf("co-located Star.CommCost = %v, want 0", got)
	}
}

func TestTopologyNames(t *testing.T) {
	names := map[string]Topology{
		"shared-bus": SharedBus{},
		"full-mesh":  FullMesh{},
		"ring":       Ring{},
		"star":       Star{},
	}
	for want, topo := range names {
		if got := topo.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestWithTopology(t *testing.T) {
	s, err := New(4, WithTopology(Ring{NumProcs: 4, PerItemCost: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology().Name() != "ring" {
		t.Errorf("topology = %q, want ring", s.Topology().Name())
	}
	if got := s.CommCost(0, 2, 3); got != 6 {
		t.Errorf("CommCost(0,2,3) = %v, want 6 (2 hops)", got)
	}
}

// Property: communication cost is always zero when co-located and
// non-negative otherwise, for every topology.
func TestPropertyCommCostSign(t *testing.T) {
	topos := []Topology{
		SharedBus{PerItemCost: 1},
		FullMesh{PerItemCost: 1},
		Ring{NumProcs: 16, PerItemCost: 1},
		Star{PerItemCost: 1},
	}
	f := func(a, b uint8, size uint16) bool {
		from, to := int(a%16), int(b%16)
		for _, topo := range topos {
			c := topo.CommCost(from, to, float64(size))
			if from == to && c != 0 {
				return false
			}
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
