package generator

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

func mustRandom(t *testing.T, cfg Config, seed uint64) *taskgraph.Graph {
	t.Helper()
	g, err := Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	return g
}

func TestRandomRespectsSubtaskBounds(t *testing.T) {
	cfg := Default(MDET)
	for seed := uint64(0); seed < 50; seed++ {
		g := mustRandom(t, cfg, seed)
		if n := g.NumSubtasks(); n < cfg.MinSubtasks || n > cfg.MaxSubtasks {
			t.Fatalf("seed %d: %d subtasks, want [%d,%d]", seed, n, cfg.MinSubtasks, cfg.MaxSubtasks)
		}
	}
}

func TestRandomRespectsDepthBounds(t *testing.T) {
	cfg := Default(MDET)
	for seed := uint64(0); seed < 50; seed++ {
		g := mustRandom(t, cfg, seed)
		if d := g.Depth(); d < cfg.MinDepth || d > cfg.MaxDepth {
			t.Fatalf("seed %d: depth %d, want [%d,%d]", seed, d, cfg.MinDepth, cfg.MaxDepth)
		}
	}
}

func TestRandomExecTimesWithinDeviation(t *testing.T) {
	for _, sc := range Scenarios() {
		cfg := Default(sc)
		lo, hi := cfg.MET*(1-sc.Deviation), cfg.MET*(1+sc.Deviation)
		g := mustRandom(t, cfg, 7)
		for _, n := range g.Nodes() {
			if n.Kind != taskgraph.KindSubtask {
				continue
			}
			if n.Cost < lo || n.Cost > hi {
				t.Fatalf("%s: cost %v outside [%v,%v]", sc.Name, n.Cost, lo, hi)
			}
		}
	}
}

func TestRandomMessageSizesWithinDeviation(t *testing.T) {
	cfg := Default(MDET)
	mean := cfg.MeanMessageSize()
	lo, hi := mean*(1-cfg.MsgDeviation), mean*(1+cfg.MsgDeviation)
	g := mustRandom(t, cfg, 11)
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindMessage {
			continue
		}
		if n.Size < lo || n.Size > hi {
			t.Fatalf("message size %v outside [%v,%v]", n.Size, lo, hi)
		}
	}
}

func TestRandomCCRApproximatelyHolds(t *testing.T) {
	cfg := Default(MDET)
	src := rng.New(3)
	sumExec, nExec, sumComm, nComm := 0.0, 0, 0.0, 0
	for i := 0; i < 32; i++ {
		g, err := Random(cfg, src.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes() {
			if n.Kind == taskgraph.KindSubtask {
				sumExec += n.Cost
				nExec++
			} else {
				sumComm += n.Size * cfg.PerItemCost
				nComm++
			}
		}
	}
	ccr := (sumComm / float64(nComm)) / (sumExec / float64(nExec))
	if ccr < 0.9 || ccr > 1.1 {
		t.Fatalf("realized CCR = %v, want ~%v", ccr, cfg.CCR)
	}
}

func TestRandomConnectivity(t *testing.T) {
	cfg := Default(HDET)
	g := mustRandom(t, cfg, 13)
	level := g.Level()
	depth := g.Depth()
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		if level[n.ID] > 1 && len(g.Pred(n.ID)) == 0 {
			t.Fatalf("subtask %v at level %d has no predecessor", n.ID, level[n.ID])
		}
		if level[n.ID] < depth && len(g.Succ(n.ID)) == 0 {
			t.Fatalf("subtask %v at level %d has no successor", n.ID, level[n.ID])
		}
	}
}

func TestRandomOutputDeadlinesSet(t *testing.T) {
	cfg := Default(LDET)
	cfg.Basis = OLRLongestPath
	g := mustRandom(t, cfg, 17)
	to := g.LongestPathTo(taskgraph.ExecCost)
	for _, out := range g.Outputs() {
		n := g.Node(out)
		if n.EndToEnd <= 0 {
			t.Fatalf("output %v has no end-to-end deadline", out)
		}
		want := cfg.OLR * to[out]
		if diff := n.EndToEnd - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("output %v deadline %v, want %v", out, n.EndToEnd, want)
		}
	}
}

func TestRandomTotalWorkBasisIsDefault(t *testing.T) {
	cfg := Default(LDET)
	if cfg.Basis != OLRTotalWork {
		t.Fatalf("default basis = %v, want OLRTotalWork (the paper's rule)", cfg.Basis)
	}
	g := mustRandom(t, cfg, 17)
	want := cfg.OLR * g.TotalWork()
	for _, out := range g.Outputs() {
		if got := g.Node(out).EndToEnd; got != want {
			t.Fatalf("output %v deadline %v, want %v", out, got, want)
		}
	}
	// The zero value of Basis behaves the same.
	cfg.Basis = 0
	g2 := mustRandom(t, cfg, 17)
	for _, out := range g2.Outputs() {
		if got := g2.Node(out).EndToEnd; got != cfg.OLR*g2.TotalWork() {
			t.Fatalf("zero basis: output %v deadline %v", out, got)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	cfg := Default(MDET)
	g1 := mustRandom(t, cfg, 99)
	g2 := mustRandom(t, cfg, 99)
	j1, err := g1.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := g2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	cfg := Default(MDET)
	g1 := mustRandom(t, cfg, 1)
	g2 := mustRandom(t, cfg, 2)
	j1, _ := g1.MarshalJSON()
	j2, _ := g2.MarshalJSON()
	if bytes.Equal(j1, j2) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestBatchIndependentOfCount(t *testing.T) {
	cfg := Default(MDET)
	b1, err := Batch(cfg, rng.New(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Batch(cfg, rng.New(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1 {
		j1, _ := b1[i].MarshalJSON()
		j2, _ := b2[i].MarshalJSON()
		if !bytes.Equal(j1, j2) {
			t.Fatalf("graph %d differs between batch sizes", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := Default(MDET)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"min subtasks", func(c *Config) { c.MinSubtasks = 0 }},
		{"max < min subtasks", func(c *Config) { c.MaxSubtasks = c.MinSubtasks - 1 }},
		{"min depth", func(c *Config) { c.MinDepth = 0 }},
		{"max < min depth", func(c *Config) { c.MaxDepth = c.MinDepth - 1 }},
		{"fanout", func(c *Config) { c.MinFanout = 0 }},
		{"MET", func(c *Config) { c.MET = 0 }},
		{"exec deviation", func(c *Config) { c.ExecDeviation = 1.5 }},
		{"negative CCR", func(c *Config) { c.CCR = -1 }},
		{"per-item cost", func(c *Config) { c.PerItemCost = 0 }},
		{"message deviation", func(c *Config) { c.MsgDeviation = -0.1 }},
		{"OLR", func(c *Config) { c.OLR = 0 }},
		{"NaN MET", func(c *Config) { c.MET = math.NaN() }},
		{"MET above MaxScale", func(c *Config) { c.MET = 2 * MaxScale }},
		{"NaN exec deviation", func(c *Config) { c.ExecDeviation = math.NaN() }},
		{"NaN CCR", func(c *Config) { c.CCR = math.NaN() }},
		{"infinite CCR", func(c *Config) { c.CCR = math.Inf(1) }},
		{"infinite per-item cost", func(c *Config) { c.PerItemCost = math.Inf(1) }},
		{"NaN message deviation", func(c *Config) { c.MsgDeviation = math.NaN() }},
		{"infinite OLR", func(c *Config) { c.OLR = math.Inf(1) }},
		{"NaN pinned fraction", func(c *Config) { c.PinnedFraction = math.NaN() }},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := base
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
			if _, err := Random(cfg, rng.New(1)); err == nil {
				t.Fatal("Random accepted invalid config")
			}
		})
	}
}

func TestDepthClampedToSubtaskCount(t *testing.T) {
	cfg := Default(MDET)
	cfg.MinSubtasks, cfg.MaxSubtasks = 3, 3
	cfg.MinDepth, cfg.MaxDepth = 10, 10
	g := mustRandom(t, cfg, 1)
	if d := g.Depth(); d != 3 {
		t.Fatalf("depth %d, want 3 (clamped to subtask count)", d)
	}
}

// Property: for arbitrary seeds the generated graph satisfies all workload
// invariants at once.
func TestPropertyRandomInvariants(t *testing.T) {
	cfg := Default(HDET)
	f := func(seed uint64) bool {
		g, err := Random(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		if n := g.NumSubtasks(); n < cfg.MinSubtasks || n > cfg.MaxSubtasks {
			return false
		}
		if d := g.Depth(); d < cfg.MinDepth || d > cfg.MaxDepth {
			return false
		}
		for _, n := range g.Nodes() {
			switch n.Kind {
			case taskgraph.KindSubtask:
				if n.Cost < cfg.MET*(1-cfg.ExecDeviation) || n.Cost > cfg.MET*(1+cfg.ExecDeviation) {
					return false
				}
			case taskgraph.KindMessage:
				if len(g.Pred(n.ID)) != 1 || len(g.Succ(n.ID)) != 1 {
					return false
				}
			}
		}
		for _, out := range g.Outputs() {
			if g.Node(out).EndToEnd <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarios(t *testing.T) {
	s := Scenarios()
	if len(s) != 3 || s[0].Name != "LDET" || s[1].Name != "MDET" || s[2].Name != "HDET" {
		t.Fatalf("Scenarios() = %v", s)
	}
	if LDET.Deviation != 0.25 || MDET.Deviation != 0.5 || HDET.Deviation != 0.99 {
		t.Fatal("scenario deviations do not match the paper")
	}
}

func TestMeanMessageSize(t *testing.T) {
	cfg := Default(MDET)
	if got := cfg.MeanMessageSize(); got != 20 {
		t.Fatalf("MeanMessageSize = %v, want 20 (CCR 1.0 × MET 20 / cost 1)", got)
	}
	cfg.CCR = 2
	if got := cfg.MeanMessageSize(); got != 40 {
		t.Fatalf("MeanMessageSize = %v, want 40", got)
	}
}

func TestPinnedFractionZeroByDefault(t *testing.T) {
	g := mustRandom(t, Default(MDET), 3)
	for _, n := range g.Nodes() {
		if n.Pinned != taskgraph.Unpinned {
			t.Fatalf("node %v pinned without PinnedFraction", n.ID)
		}
	}
}

func TestPinnedFractionFull(t *testing.T) {
	cfg := Default(MDET)
	cfg.PinnedFraction = 1
	cfg.PinnedProcs = 2
	g := mustRandom(t, cfg, 3)
	level := g.Level()
	depth := g.Depth()
	for _, n := range g.Nodes() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		boundary := level[n.ID] == 1 || level[n.ID] == depth
		if boundary {
			if n.Pinned < 0 || n.Pinned >= 2 {
				t.Fatalf("boundary subtask %v pinned to %d, want [0,2)", n.ID, n.Pinned)
			}
		} else if n.Pinned != taskgraph.Unpinned {
			t.Fatalf("interior subtask %v pinned", n.ID)
		}
	}
}

func TestPinnedFractionPartial(t *testing.T) {
	cfg := Default(MDET)
	cfg.PinnedFraction = 0.5
	pinned, boundary := 0, 0
	src := rng.New(9)
	for i := 0; i < 16; i++ {
		g, err := Random(cfg, src.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		level := g.Level()
		depth := g.Depth()
		for _, n := range g.Nodes() {
			if n.Kind != taskgraph.KindSubtask {
				continue
			}
			if level[n.ID] == 1 || level[n.ID] == depth {
				boundary++
				if n.Pinned != taskgraph.Unpinned {
					pinned++
				}
			}
		}
	}
	frac := float64(pinned) / float64(boundary)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("realized pinned fraction %v, want ~0.5", frac)
	}
}

func TestPinnedConfigValidation(t *testing.T) {
	cfg := Default(MDET)
	cfg.PinnedFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("pinned fraction > 1 accepted")
	}
	cfg = Default(MDET)
	cfg.PinnedProcs = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative pinned pool accepted")
	}
}
