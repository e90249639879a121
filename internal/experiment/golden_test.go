package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadlinedist/internal/metrics"
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

// reuseCounters renders the work-reuse counters of a sweep: fingerprint,
// batch and cross-table cache traffic, the cells scheduled for real or
// reused (past idle processors or from another table), the measure
// observations (one per cell) and the critical-path search work.
func reuseCounters(s metrics.Snapshot) string {
	sc := s.Search
	return fmt.Sprintf("fingerprint: %d hits, %d misses\n"+
		"batch: %d hits, %d misses\n"+
		"cross-table: %d hits, %d misses, %d rejected, %d flushes\n"+
		"schedule: %d runs, %d reused past idle processors, %d reused cross-table\n"+
		"measure: %d cells\n"+
		"search: %d iterations, %d starts, %d DP runs, %d memo reuses, %d DP rows, %d DP cells\n",
		s.CacheHits, s.CacheMisses,
		s.BatchHits, s.BatchMisses,
		s.CrossHits, s.CrossMisses, s.CrossRejected, s.CrossFlushes,
		s.Stages[metrics.StageSchedule].Count, s.ReusedIdle, s.ReusedCross,
		s.Stages[metrics.StageMeasure].Count,
		sc.Iterations, sc.StartsExamined, sc.DPRuns, sc.CacheReuses, sc.DPRows, sc.DPCells)
}

// TestReuseCountersGolden runs the registry of TestFigureTablesGolden on
// one worker and on four, recording both sweeps, and pins their reuse
// counters: the two must agree, and both must match
// testdata/reuse.golden. A change of a cache key or of an equality that
// loses (or invents) reuse shows here even when every table still
// matches. Regenerate with UPDATE_GOLDEN=1 only for an intended change.
func TestReuseCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sweep := func(workers int) string {
		orc := NewOrchestrator(workers)
		defer orc.Close()
		base := figBase(4, 2, 3, 8, 16)
		base.Orchestrator = orc
		base.Metrics = metrics.New()
		for _, key := range FigureOrder() {
			if _, err := Figures()[key](context.Background(), base); err != nil {
				t.Fatalf("figure %s with %d workers: %v", key, workers, err)
			}
		}
		return reuseCounters(base.Metrics.Snapshot())
	}
	serial, pooled := sweep(1), sweep(4)
	if serial != pooled {
		t.Errorf("reuse counters differ between 1 and 4 workers:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", serial, pooled)
	}
	path := filepath.Join("testdata", "reuse.golden")
	if updateGolden {
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if serial != string(want) {
		t.Errorf("reuse counters drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, serial, want)
	}
}
