package core

import (
	"fmt"
	"math"
	"testing"

	"deadlinedist/internal/platform"
	"deadlinedist/internal/taskgraph"
)

func sys(t *testing.T, n int, opts ...platform.Option) *platform.System {
	t.Helper()
	s, err := platform.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// threeChain builds a(10) -> b(20) -> c(30) with message size 5 and
// end-to-end deadline 90.
func threeChain(t *testing.T) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder()
	a := b.AddSubtask("a", 10)
	bb := b.AddSubtask("b", 20)
	c := b.AddSubtask("c", 30)
	b.Connect(a, bb, 5)
	b.Connect(bb, c, 5)
	b.SetEndToEnd(c, 90)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNORMRatio(t *testing.T) {
	m := NORM()
	if got := m.Ratio(90, 60, 3); !approx(got, 0.5) {
		t.Errorf("NORM Ratio = %v, want 0.5", got)
	}
	if got := m.Ratio(90, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("NORM Ratio with zero cost = %v, want +Inf", got)
	}
	if got := m.Ratio(30, 60, 3); !approx(got, -0.5) {
		t.Errorf("NORM negative-slack Ratio = %v, want -0.5", got)
	}
}

func TestNORMWindow(t *testing.T) {
	m := NORM()
	if got := m.Window(20, 0.5); !approx(got, 30) {
		t.Errorf("NORM Window = %v, want 30", got)
	}
}

func TestPURERatio(t *testing.T) {
	m := PURE()
	if got := m.Ratio(90, 60, 3); !approx(got, 10) {
		t.Errorf("PURE Ratio = %v, want 10", got)
	}
	if got := m.Ratio(90, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("PURE Ratio with no windowed nodes = %v, want +Inf", got)
	}
}

func TestPUREWindow(t *testing.T) {
	m := PURE()
	if got := m.Window(20, 10); !approx(got, 30) {
		t.Errorf("PURE Window = %v, want 30", got)
	}
}

func TestVirtualCostsNORMAndPURE(t *testing.T) {
	g := threeChain(t)
	est := CCAA().Estimate(nil, g, sys(t, 4))
	for _, m := range []Metric{NORM(), PURE()} {
		vc := m.VirtualCosts(nil, g, sys(t, 4), est)
		for _, n := range g.Nodes() {
			want := n.Cost
			if n.Kind == taskgraph.KindMessage {
				want = est[n.ID]
			}
			if !approx(vc[n.ID], want) {
				t.Errorf("%s: vc[%v] = %v, want %v", m.Name(), n.ID, vc[n.ID], want)
			}
		}
	}
}

func TestTHRESInflation(t *testing.T) {
	g := threeChain(t) // MET = 20
	est := CCNE().Estimate(nil, g, sys(t, 4))
	vc := THRES(1, 1.0).VirtualCosts(nil, g, sys(t, 4), est) // cthres = 20
	// a=10 below threshold, b=20 at threshold (>=), c=30 above.
	want := map[string]float64{"a": 10, "b": 40, "c": 60}
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if !approx(vc[n.ID], want[n.Name]) {
			t.Errorf("THRES vc[%s] = %v, want %v", n.Name, vc[n.ID], want[n.Name])
		}
	}
}

func TestTHRESThresholdFactor(t *testing.T) {
	g := threeChain(t)
	est := CCNE().Estimate(nil, g, sys(t, 4))
	// cthres = 1.25 × 20 = 25: only c (30) is inflated.
	vc := THRES(2, 1.25).VirtualCosts(nil, g, sys(t, 4), est)
	want := map[string]float64{"a": 10, "b": 20, "c": 90}
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if !approx(vc[n.ID], want[n.Name]) {
			t.Errorf("vc[%s] = %v, want %v", n.Name, vc[n.ID], want[n.Name])
		}
	}
}

func TestADAPTSurplusScalesWithProcs(t *testing.T) {
	g := threeChain(t) // chain: parallelism ξ = 1
	est := CCNE().Estimate(nil, g, sys(t, 2))
	vc2 := ADAPT(1.0).VirtualCosts(nil, g, sys(t, 2), est)
	vc16 := ADAPT(1.0).VirtualCosts(nil, g, sys(t, 16), est)
	// ξ/N = 0.5 at N=2, 0.0625 at N=16; c (cost 30 ≥ cthres 20) inflates.
	var c taskgraph.NodeID
	for _, n := range g.Nodes() {
		if n.Name == "c" {
			c = n.ID
		}
	}
	if !approx(vc2[c], 45) {
		t.Errorf("ADAPT vc at N=2 = %v, want 45 (30 × 1.5)", vc2[c])
	}
	if !approx(vc16[c], 31.875) {
		t.Errorf("ADAPT vc at N=16 = %v, want 31.875 (30 × 1.0625)", vc16[c])
	}
	if vc2[c] <= vc16[c] {
		t.Error("ADAPT inflation must shrink as the system grows")
	}
}

func TestADAPTFollowsPUREOnParallelSystems(t *testing.T) {
	// On a huge system the surplus ξ/N vanishes, so ADAPT's virtual costs
	// approach the real costs (PURE's view).
	g := threeChain(t)
	est := CCNE().Estimate(nil, g, sys(t, 1000))
	vc := ADAPT(1.25).VirtualCosts(nil, g, sys(t, 1000), est)
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if math.Abs(vc[n.ID]-n.Cost) > 0.05*n.Cost {
			t.Errorf("ADAPT vc[%s] = %v, want ~%v on a 1000-proc system", n.Name, vc[n.ID], n.Cost)
		}
	}
}

func TestMetricNames(t *testing.T) {
	want := map[string]Metric{
		"NORM":  NORM(),
		"PURE":  PURE(),
		"THRES": THRES(1, 1),
		"ADAPT": ADAPT(1.25),
	}
	for name, m := range want {
		if m.Name() != name {
			t.Errorf("Name = %q, want %q", m.Name(), name)
		}
	}
}

func TestADAPTAblationEndpoints(t *testing.T) {
	g := threeChain(t)
	s4 := sys(t, 2)
	est := CCNE().Estimate(nil, g, s4)

	// (false,false) behaves exactly like PURE for both roles.
	neither := ADAPTAblation(1.25, false, false)
	pure := PURE()
	vcN := neither.VirtualCosts(nil, g, s4, est)
	vcP := pure.VirtualCosts(nil, g, s4, est)
	for i := range vcN {
		if vcN[i] != vcP[i] {
			t.Fatalf("neither-variant vc[%d] = %v, PURE = %v", i, vcN[i], vcP[i])
		}
	}
	// (true,true) behaves exactly like ADAPT.
	both := ADAPTAblation(1.25, true, true)
	adapt := ADAPT(1.25)
	vcB := both.VirtualCosts(nil, g, s4, est)
	vcA := adapt.VirtualCosts(nil, g, s4, est)
	for i := range vcB {
		if vcB[i] != vcA[i] {
			t.Fatalf("both-variant vc[%d] = %v, ADAPT = %v", i, vcB[i], vcA[i])
		}
	}
}

func TestADAPTAblationNames(t *testing.T) {
	want := map[string]Metric{
		"ADAPT(rank+window)": ADAPTAblation(1.25, true, true),
		"ADAPT(rank-only)":   ADAPTAblation(1.25, true, false),
		"ADAPT(window-only)": ADAPTAblation(1.25, false, true),
		"ADAPT(neither)":     ADAPTAblation(1.25, false, false),
	}
	for name, m := range want {
		if m.Name() != name {
			t.Errorf("Name = %q, want %q", m.Name(), name)
		}
	}
}

func TestADAPTAblationWindowCosts(t *testing.T) {
	g := threeChain(t)
	s2 := sys(t, 2)
	est := CCNE().Estimate(nil, g, s2)
	m := ADAPTAblation(1.25, false, true).(WindowCoster)
	win := m.WindowCosts(nil, g, s2, est)
	var c taskgraph.NodeID
	for _, n := range g.Nodes() {
		if n.Name == "c" {
			c = n.ID
		}
	}
	// ξ=1, N=2 -> Δ=0.5; cthres=25: only c (30) inflated to 45.
	if !approx(win[c], 45) {
		t.Fatalf("window cost of c = %v, want 45", win[c])
	}
	// Ranking costs stay real.
	rank := ADAPTAblation(1.25, false, true).VirtualCosts(nil, g, s2, est)
	if !approx(rank[c], 30) {
		t.Fatalf("rank cost of c = %v, want 30", rank[c])
	}
}

// TestMetricBufferContract: every stock metric's VirtualCosts, and
// WindowCosts where the metric has them, give the same bits into a nil
// dst as into a longer, NaN-filled, reused one.
func TestMetricBufferContract(t *testing.T) {
	g := contractGraph(t)
	metrics := []Metric{NORM(), PURE(), THRES(2, 1.25), ADAPT(1.25)}
	for _, rank := range []bool{false, true} {
		for _, window := range []bool{false, true} {
			metrics = append(metrics, ADAPTAblation(1.25, rank, window))
		}
	}
	for _, m := range metrics {
		for _, procs := range []int{2, 16} {
			s := sys(t, procs)
			est := CCAA().Estimate(nil, g, s)
			t.Run(fmt.Sprintf("%s/%d/virtual", m.Name(), procs), func(t *testing.T) {
				checkBufferContract(t, g.NumNodes(), func(dst []float64) []float64 {
					return m.VirtualCosts(dst, g, s, est)
				})
			})
			if wc, ok := m.(WindowCoster); ok {
				t.Run(fmt.Sprintf("%s/%d/window", m.Name(), procs), func(t *testing.T) {
					checkBufferContract(t, g.NumNodes(), func(dst []float64) []float64 {
						return wc.WindowCosts(dst, g, s, est)
					})
				})
			}
		}
	}
}

// TestCostVectorsLayout: a distributor's cost vectors are the metric's
// virtual costs under its estimator, followed by the window costs for a
// WindowCoster, and a reused dst is filled in place.
func TestCostVectorsLayout(t *testing.T) {
	g := contractGraph(t)
	s := sys(t, 3)
	est := CCAA().Estimate(nil, g, s)
	sc := NewScratch()
	for _, m := range []Metric{PURE(), ADAPTAblation(1.25, false, true)} {
		want := m.VirtualCosts(nil, g, s, est)
		if wc, ok := m.(WindowCoster); ok {
			want = append(want, wc.WindowCosts(nil, g, s, est)...)
		}
		d := Distributor{Metric: m, Estimator: CCAA()}
		checkBufferContract(t, len(want), func(dst []float64) []float64 {
			return d.CostVectors(dst, g, s, sc)
		})
		got := d.CostVectors(nil, g, s, nil)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: cost vector [%d] = %v, want %v", m.Name(), i, got[i], want[i])
			}
		}
	}
}
