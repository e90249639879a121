package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"deadlinedist/internal/metrics"
)

// WritePrometheus renders a metrics.Snapshot plus a ProgressSnapshot as
// Prometheus text exposition (version 0.0.4): per-stage duration
// histograms (cumulative buckets in seconds), cache traffic, pool
// occupancy, fault-tolerance and checkpoint-journal counters, and
// unit-level progress gauges. Zero-valued families are still written —
// scrapers want stable series, not series that appear mid-run.
func WritePrometheus(w io.Writer, snap metrics.Snapshot, prog ProgressSnapshot) error {
	b := &strings.Builder{}

	writeHeader(b, "dlexp_stage_duration_seconds", "histogram",
		"Wall time of one pipeline-stage execution, by stage.")
	for _, st := range snap.Stages {
		writeStageHistogram(b, st)
	}

	writeHeader(b, "dlexp_cache_requests_total", "counter",
		"Cache lookups by cache (fingerprint, batch, cross_table) and result.")
	writeCounter(b, `dlexp_cache_requests_total{cache="fingerprint",result="hit"}`, snap.CacheHits)
	writeCounter(b, `dlexp_cache_requests_total{cache="fingerprint",result="miss"}`, snap.CacheMisses)
	writeCounter(b, `dlexp_cache_requests_total{cache="batch",result="hit"}`, snap.BatchHits)
	writeCounter(b, `dlexp_cache_requests_total{cache="batch",result="miss"}`, snap.BatchMisses)
	writeCounter(b, `dlexp_cache_requests_total{cache="cross_table",result="hit"}`, snap.CrossHits)
	writeCounter(b, `dlexp_cache_requests_total{cache="cross_table",result="miss"}`, snap.CrossMisses)

	writeHeader(b, "dlexp_cross_table_rejected_total", "counter",
		"Assignment publishes refused because the cross-table cache was at capacity.")
	writeCounter(b, "dlexp_cross_table_rejected_total", snap.CrossRejected)
	writeHeader(b, "dlexp_cross_table_flushes_total", "counter",
		"Capacity resets of the cross-table cache (flush-and-readmit).")
	writeCounter(b, "dlexp_cross_table_flushes_total", snap.CrossFlushes)

	writeHeader(b, "dlexp_pool_jobs_total", "counter", "Jobs executed by the shared worker pool.")
	writeCounter(b, "dlexp_pool_jobs_total", snap.PoolJobs)
	writeHeader(b, "dlexp_pool_peak_occupancy", "gauge", "Peak concurrent busy workers observed.")
	writeCounter(b, "dlexp_pool_peak_occupancy", snap.PoolPeak)
	writeHeader(b, "dlexp_pool_workers", "gauge", "Effective worker-pool size of the run.")
	writeCounter(b, "dlexp_pool_workers", snap.PoolWorkers)
	writeHeader(b, "dlexp_host_cpus", "gauge", "Logical CPUs visible to the process (runtime.NumCPU).")
	writeCounter(b, "dlexp_host_cpus", int64(snap.Cpus))
	writeHeader(b, "dlexp_host_gomaxprocs", "gauge", "GOMAXPROCS at snapshot time.")
	writeCounter(b, "dlexp_host_gomaxprocs", int64(snap.Gomaxprocs))

	writeHeader(b, "dlexp_unit_events_total", "counter",
		"Fault-tolerance events of the run layer, by kind.")
	writeCounter(b, `dlexp_unit_events_total{kind="panic_recovered"}`, snap.UnitPanics)
	writeCounter(b, `dlexp_unit_events_total{kind="deadline_timeout"}`, snap.UnitTimeouts)
	writeCounter(b, `dlexp_unit_events_total{kind="retry"}`, snap.UnitRetries)
	writeCounter(b, `dlexp_unit_events_total{kind="fault_injected"}`, snap.FaultsInjected)

	writeHeader(b, "dlexp_journal_units_total", "counter",
		"Units replayed from the checkpoint journal versus computed this run.")
	writeCounter(b, `dlexp_journal_units_total{source="replayed"}`, snap.JournalReplays)
	writeCounter(b, `dlexp_journal_units_total{source="computed"}`, snap.JournalComputes)

	writeHeader(b, "dlexp_search_work_total", "counter",
		"Critical-path search work of the distribution core, by counter.")
	writeCounter(b, `dlexp_search_work_total{counter="iterations"}`, snap.Search.Iterations)
	writeCounter(b, `dlexp_search_work_total{counter="starts_examined"}`, snap.Search.StartsExamined)
	writeCounter(b, `dlexp_search_work_total{counter="dp_runs"}`, snap.Search.DPRuns)
	writeCounter(b, `dlexp_search_work_total{counter="memo_reuses"}`, snap.Search.CacheReuses)
	writeCounter(b, `dlexp_search_work_total{counter="dp_rows"}`, snap.Search.DPRows)
	writeCounter(b, `dlexp_search_work_total{counter="dp_cells"}`, snap.Search.DPCells)

	writeHeader(b, "dlexp_units", "gauge", "Units of pool work by state, whole invocation.")
	writeCounter(b, `dlexp_units{state="done"}`, int64(prog.UnitsDone))
	writeCounter(b, `dlexp_units{state="failed"}`, int64(prog.UnitsFailed))
	writeCounter(b, `dlexp_units{state="total"}`, int64(prog.UnitsTotal))

	writeHeader(b, "dlexp_table_units", "gauge", "Units of pool work by table and state.")
	for _, t := range prog.Tables {
		lbl := escapeLabel(t.Table)
		fmt.Fprintf(b, "dlexp_table_units{table=%q,state=\"done\"} %d\n", lbl, t.Done)
		fmt.Fprintf(b, "dlexp_table_units{table=%q,state=\"total\"} %d\n", lbl, t.Total)
	}

	writeHeader(b, "dlexp_run_elapsed_seconds", "gauge", "Wall time since the run started.")
	fmt.Fprintf(b, "dlexp_run_elapsed_seconds %s\n", formatFloat(prog.ElapsedSeconds))

	writeHeader(b, "dlexp_run_eta_seconds", "gauge",
		"Estimated remaining wall time, from the stage histograms and pool occupancy.")
	fmt.Fprintf(b, "dlexp_run_eta_seconds %s\n", formatFloat(prog.ETASeconds(snap)))

	_, err := io.WriteString(w, b.String())
	return err
}

// writeStageHistogram renders one stage as a Prometheus histogram via the
// shared duration-histogram renderer (slo.go).
func writeStageHistogram(b *strings.Builder, st metrics.StageStats) {
	writeDurationHistogram(b, "dlexp_stage_duration_seconds",
		fmt.Sprintf("stage=%q", escapeLabel(st.Stage)), st)
}

func writeHeader(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeCounter(b *strings.Builder, series string, v int64) {
	fmt.Fprintf(b, "%s %d\n", series, v)
}

// formatFloat renders a float the way Prometheus expects: shortest exact
// decimal, no exponent surprises for the usual magnitudes.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format (backslash,
// double quote and newline). %q adds the surrounding quotes and the first
// two escapes; newlines are the one case it would botch (as \x0a-style
// escapes Prometheus does not parse), so normalize them away first.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", " ")
}
