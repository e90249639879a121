package experiment

import (
	"context"
	"strings"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
)

// figBase returns a reduced-batch configuration so figure smoke tests stay
// fast on one core: the full 128-graph batches are exercised by cmd/dlexp
// and the benchmarks.
func figBase(graphs int, sizes ...int) Config {
	cfg := Default(generator.MDET)
	cfg.Graphs = graphs
	cfg.Sizes = sizes
	return cfg
}

func labels(t *Table) []string {
	out := make([]string, 0, len(t.Curves))
	for _, c := range t.Curves {
		out = append(out, c.Label)
	}
	return out
}

func TestFigure2Shape(t *testing.T) {
	tables, err := Figures()["2"](context.Background(), figBase(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("figure 2 returned %d tables, want 3 (one per scenario)", len(tables))
	}
	wantScenarios := []string{"LDET", "MDET", "HDET"}
	for i, table := range tables {
		if table.Scenario != wantScenarios[i] {
			t.Errorf("table %d scenario = %q, want %q", i, table.Scenario, wantScenarios[i])
		}
		got := strings.Join(labels(table), " ")
		for _, want := range []string{"PURE/CCNE", "PURE/CCAA", "NORM/CCNE", "NORM/CCAA"} {
			if !strings.Contains(got, want) {
				t.Errorf("table %d missing curve %q (got %q)", i, want, got)
			}
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	tables, err := Figures()["3"](context.Background(), figBase(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("figure 3 returned %d tables", len(tables))
	}
	got := strings.Join(labels(tables[0]), " ")
	for _, want := range []string{"THRES d=1", "THRES d=2", "THRES d=4"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing curve %q (got %q)", want, got)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tables, err := Figures()["4"](context.Background(), figBase(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(labels(tables[0]), " ")
	for _, want := range []string{"cthres=0.75 MET", "cthres=1.00 MET", "cthres=1.25 MET"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing curve %q (got %q)", want, got)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	tables, err := Figures()["5"](context.Background(), figBase(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(labels(tables[0]), " ")
	for _, want := range []string{"PURE/CCNE", "THRES/CCNE", "ADAPT/CCNE"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing curve %q (got %q)", want, got)
		}
	}
}

// TestSweepsProduceTables runs every registered figure and checks its
// table count, one table per panel, and that every table covers the sweep.
func TestSweepsProduceTables(t *testing.T) {
	base := figBase(3, 2, 8)
	want := map[string]int{
		"2": 3, "3": 3, "4": 3, "5": 3,
		"ccr": 4, "met": 3, "par": 3, "topo": 4, "shapes": 5, "apps": 3,
		"baselines": 1, "bus": 2, "locality": 4, "policy": 4, "preempt": 2,
		"hetero": 3, "channels": 4, "order": 1, "ablate": 1, "improve": 1,
		"olr": 2, "dispatch": 2,
	}
	if len(FigureOrder()) != len(want) {
		t.Fatalf("registry has %d figures, test expects %d", len(FigureOrder()), len(want))
	}
	for _, key := range FigureOrder() {
		t.Run(key, func(t *testing.T) {
			n, ok := want[key]
			if !ok {
				t.Fatalf("no expected table count for figure %s", key)
			}
			tables, err := Figures()[key](context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) != n {
				t.Fatalf("%s returned %d tables, want %d", key, len(tables), n)
			}
			for _, table := range tables {
				if len(table.Curves) == 0 || len(table.Curves[0].Points) != 2 {
					t.Fatalf("%s: malformed table %q", key, table.Title)
				}
			}
		})
	}
}

// TestPaperShapeLatenessImprovesWithSize checks the headline qualitative
// behaviour of Figure 2: maximum lateness improves (decreases) from a
// 2-processor system to a 16-processor system.
func TestPaperShapeLatenessImprovesWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := figBase(24, 2, 16)
	table, err := cfg.Run("shape", Slicing(core.PURE(), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	small, _ := table.Mean("PURE/CCNE", 2)
	large, _ := table.Mean("PURE/CCNE", 16)
	if large >= small {
		t.Fatalf("lateness did not improve with size: %v at N=2, %v at N=16", small, large)
	}
}

// TestPaperShapeADAPTBeatsPUREOnSmallSystems checks the paper's headline
// claim (Figure 5): ADAPT outperforms PURE when parallelism cannot be
// exploited (small N), and stays comparable on large systems.
func TestPaperShapeADAPTBeatsPUREOnSmallSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := figBase(24, 2, 16)
	table, err := cfg.Run("shape", Slicing(core.PURE(), core.CCNE()), Slicing(core.ADAPT(1.25), core.CCNE()))
	if err != nil {
		t.Fatal(err)
	}
	pureSmall, _ := table.Mean("PURE/CCNE", 2)
	adaptSmall, _ := table.Mean("ADAPT/CCNE", 2)
	if adaptSmall >= pureSmall {
		t.Fatalf("ADAPT (%v) not better than PURE (%v) at N=2", adaptSmall, pureSmall)
	}
}

// TestPaperShapeCCNEBeatsCCAA checks Figure 2's finding that never assuming
// communication cost leaves more slack and yields better lateness overall.
func TestPaperShapeCCNEBeatsCCAA(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := figBase(24, 8)
	table, err := cfg.Run("shape", Slicing(core.PURE(), core.CCNE()), Slicing(core.PURE(), core.CCAA()))
	if err != nil {
		t.Fatal(err)
	}
	ccne, _ := table.Mean("PURE/CCNE", 8)
	ccaa, _ := table.Mean("PURE/CCAA", 8)
	if ccne > ccaa {
		t.Fatalf("CCNE (%v) worse than CCAA (%v) at N=8", ccne, ccaa)
	}
}

func TestLocalitySweepShape(t *testing.T) {
	tables, err := Figures()["locality"](context.Background(), figBase(3, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("figure locality returned %d tables, want 4", len(tables))
	}
	for _, table := range tables {
		if !strings.Contains(table.Scenario, "pinned=") {
			t.Errorf("scenario %q missing pinned fraction", table.Scenario)
		}
	}
}

func TestOrderComparisonShape(t *testing.T) {
	tables, err := Figures()["order"](context.Background(), figBase(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("figure order returned %d tables", len(tables))
	}
	got := strings.Join(labels(tables[0]), " ")
	for _, want := range []string{"PURE/CCNE", "ADAPT/CCNE", "PURE/assign-first", "NORM/assign-first"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing curve %q (got %q)", want, got)
		}
	}
}

// TestPaperPremiseDistributionFirstWins checks the motivating claim of the
// paper: distributing deadlines before assignment beats the conventional
// assignment-first order on relaxed-locality workloads.
func TestPaperPremiseDistributionFirstWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := figBase(16, 4)
	table, err := cfg.Run("premise",
		Slicing(core.ADAPT(1.25), core.CCNE()),
		AssignFirst(core.PURE()),
	)
	if err != nil {
		t.Fatal(err)
	}
	distFirst, _ := table.Mean("ADAPT/CCNE", 4)
	assignFirst, _ := table.Mean("PURE/assign-first", 4)
	if distFirst >= assignFirst {
		t.Fatalf("distribution-first (%v) not better than assignment-first (%v)", distFirst, assignFirst)
	}
}
