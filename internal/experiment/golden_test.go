package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderFigure runs one registered figure under a dedicated pool of the
// given size and renders every resulting table in both text and CSV form.
// The concatenated bytes are the determinism witness: any worker-count
// dependence in scheduling, caching, or float accumulation shows up here.
func renderFigure(t *testing.T, key string, workers, graphs int) string {
	t.Helper()
	orc := NewOrchestrator(workers)
	defer orc.Close()
	cfg := figBase(graphs, 2, 6)
	cfg.Orchestrator = orc
	tables, err := Figures()[key](context.Background(), cfg)
	if err != nil {
		t.Fatalf("figure %s with %d workers: %v", key, workers, err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteByte('\n')
		sb.WriteString(tb.CSV())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestFiguresByteIdenticalAcrossWorkers is the golden determinism test for
// the contention-free hot path: every figure in the registry must render
// byte-identical tables whether the sweep runs on one worker or four. The
// sharded caches, per-worker arenas, and CSR traversals may change timing
// and memory behaviour, never results.
func TestFiguresByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, key := range FigureOrder() {
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			serial := renderFigure(t, key, 1, 2)
			pooled := renderFigure(t, key, 4, 2)
			if serial == "" {
				t.Fatalf("figure %s rendered no output", key)
			}
			if serial != pooled {
				t.Errorf("figure %s tables differ between 1 and 4 workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
					key, serial, pooled)
			}
		})
	}
}

// updateGolden regenerates testdata/figures.golden when set.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestFigureTablesGolden pins the rendered tables of every registered
// figure at a reduced batch (4 graphs, sizes 2, 3, 8 and 16, seed 1997)
// against testdata/figures.golden, byte for byte. Titles, scenarios,
// curve labels and values all show up in the rendering, so a refactor of
// how figures are declared or run must leave this file untouched.
// Regenerate with UPDATE_GOLDEN=1 only for an intended change of results.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	orc := NewOrchestrator(0)
	defer orc.Close()
	base := figBase(4, 2, 3, 8, 16)
	base.Orchestrator = orc
	var sb strings.Builder
	for _, key := range FigureOrder() {
		tables, err := Figures()[key](context.Background(), base)
		if err != nil {
			t.Fatalf("figure %s: %v", key, err)
		}
		fmt.Fprintf(&sb, "=== figure %s\n", key)
		for _, tb := range tables {
			sb.WriteString(tb.String())
			sb.WriteByte('\n')
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "figures.golden")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("figure tables drifted from %s:\n--- got ---\n%s", path, got)
	}
}
