package core_test

import (
	"context"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
)

// TestDPShapeOverFigures measures what the DP row layout assumes, over
// every figure run through experiment.RunFigures (the paper's random
// workload, the structured shapes and the application graphs): the share
// of stamped rows whose band holds one cell (the inline cell alone) and
// the share that spill into the arena, with live out-degrees. One-cell
// rows must stay the large majority the record layout is built for.
func TestDPShapeOverFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	cfg := experiment.Default(generator.MDET)
	cfg.Graphs = 4
	cfg.Sizes = []int{2, 3, 8, 16}
	cfg.Metrics = metrics.New()
	keys := experiment.FigureOrder()
	stop := core.ObserveDP()
	runs := experiment.RunFigures(context.Background(), cfg, keys)
	sh := stop()
	for i, run := range runs {
		if run.Err != nil {
			t.Fatalf("figure %s: %v", keys[i], run.Err)
		}
	}
	// Every DP run reaches the search counters, the improvement assigners'
	// included, so the probe sees exactly what they report.
	if want := cfg.Metrics.Snapshot().Search; sh.Runs != want.DPRuns || sh.Rows != want.DPRows {
		t.Errorf("probe saw %d runs and %d rows, search counters report %d and %d", sh.Runs, sh.Rows, want.DPRuns, want.DPRows)
	}
	share := func(n int64) float64 { return float64(n) / float64(sh.Rows) }
	t.Logf("%d DP runs, %d rows (%.1f per run), %d arcs (%.2f per row)",
		sh.Runs, sh.Rows, float64(sh.Rows)/float64(sh.Runs), sh.Arcs, float64(sh.Arcs)/float64(sh.Rows))
	t.Logf("band width: empty %d rows, one cell %.2f%%, two %.2f%%, three or more %.2f%%; spilled rows %.2f%%",
		sh.Width[0], 100*share(sh.Width[1]), 100*share(sh.Width[2]), 100*share(sh.Width[3]),
		100*share(sh.Width[2]+sh.Width[3]))
	t.Logf("live out-degree: 0 %.2f%%, 1 %.2f%%, 2 %.2f%%, 3 or more %.2f%%; arcs from one-cell rows %.2f%%",
		100*share(sh.OutDeg[0]), 100*share(sh.OutDeg[1]), 100*share(sh.OutDeg[2]), 100*share(sh.OutDeg[3]),
		100*float64(sh.OneCellArcs)/float64(sh.Arcs))
	if sh.Rows == 0 || share(sh.Width[1]) < 0.9 {
		t.Errorf("one-cell rows are %.2f%% of %d, want at least 90%%", 100*share(sh.Width[1]), sh.Rows)
	}
}
