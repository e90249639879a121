package obs

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/metrics"
)

func promSources() (metrics.Snapshot, ProgressSnapshot) {
	rec := metrics.New()
	rec.Observe(metrics.StageAssign, 10*time.Microsecond)
	rec.Observe(metrics.StageAssign, 3*time.Millisecond)
	rec.Observe(metrics.StageSchedule, 50*time.Microsecond)
	rec.CacheHit()
	rec.CacheMiss()
	rec.UnitRetry()
	rec.JournalReplay()
	rec.JournalCompute()
	rec.PoolJobStart()
	rec.AddSearch(metrics.SearchCounters{Iterations: 2, StartsExamined: 5, DPRuns: 3, CacheReuses: 2, DPRows: 14, DPCells: 12})
	prog := NewProgress()
	prog.StartTable("Figure 2", 8)
	prog.UnitDone("Figure 2")
	return rec.Snapshot(), prog.Snapshot()
}

func TestWritePrometheus(t *testing.T) {
	snap, ps := promSources()
	var b strings.Builder
	if err := WritePrometheus(&b, snap, ps); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP dlexp_stage_duration_seconds ",
		"# TYPE dlexp_stage_duration_seconds histogram",
		`dlexp_stage_duration_seconds_bucket{stage="assign",le="+Inf"} 2`,
		`dlexp_stage_duration_seconds_count{stage="assign"} 2`,
		`dlexp_cache_requests_total{cache="fingerprint",result="hit"} 1`,
		`dlexp_cache_requests_total{cache="fingerprint",result="miss"} 1`,
		`dlexp_unit_events_total{kind="retry"} 1`,
		`dlexp_journal_units_total{source="replayed"} 1`,
		`dlexp_journal_units_total{source="computed"} 1`,
		`dlexp_units{state="done"} 1`,
		`dlexp_units{state="total"} 8`,
		`dlexp_table_units{table="Figure 2",state="done"} 1`,
		"dlexp_pool_jobs_total 1",
		`dlexp_search_work_total{counter="dp_runs"} 3`,
		`dlexp_search_work_total{counter="dp_rows"} 14`,
		`dlexp_search_work_total{counter="dp_cells"} 12`,
		"dlexp_run_elapsed_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusFormatValid parses the whole exposition with a minimal
// format checker: every non-comment line must be `name{labels} value` with
// a float value, every family must be introduced by HELP and TYPE, and
// histogram buckets must be cumulative and end at +Inf.
func TestPrometheusFormatValid(t *testing.T) {
	snap, ps := promSources()
	var b strings.Builder
	if err := WritePrometheus(&b, snap, ps); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, b.String())
}

// validateExposition is the minimal format checker shared by the metrics
// and SLO exposition tests (see TestPrometheusFormatValid for the rules).
func validateExposition(t *testing.T, out string) {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]bool{}
	var lastBucketCum = map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(rest)[0]] = true
			continue
		}
		// Sample line: name or name{labels}, one space, float value.
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		series, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64); err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, value, err)
		}
		name := series
		var labels string
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, series)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		// Labels must be key="value" pairs with quoted values. (A simple
		// split is fine: no label value here contains a comma.)
		for _, pair := range strings.Split(labels, ",") {
			if pair == "" {
				continue
			}
			k, v, ok := strings.Cut(pair, "=")
			if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: bad label pair %q", ln+1, pair)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if !helped[family] || !typed[family] {
			t.Fatalf("line %d: family %s has no HELP/TYPE header", ln+1, family)
		}
		if strings.HasSuffix(name, "_bucket") {
			v, _ := strconv.ParseFloat(value, 64)
			key := labels[:strings.Index(labels, ",le=")]
			if v < lastBucketCum[key] {
				t.Fatalf("line %d: bucket not cumulative: %q", ln+1, line)
			}
			lastBucketCum[key] = v
			if strings.Contains(labels, `le="+Inf"`) {
				delete(lastBucketCum, key) // series complete
			}
		}
	}
	if len(lastBucketCum) != 0 {
		t.Fatalf("histogram series without +Inf bucket: %v", lastBucketCum)
	}
}

func TestPrometheusEscapesLabels(t *testing.T) {
	prog := NewProgress()
	prog.StartTable("weird \"table\"\nname", 1)
	var b strings.Builder
	if err := WritePrometheus(&b, metrics.Snapshot{}, prog.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("dlexp_table_units{table=%q,state=\"done\"} 0", "weird \"table\" name")
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label missing %q:\n%s", want, b.String())
	}
	if strings.Contains(b.String(), "\nname") {
		t.Error("newline survived into a label value")
	}
}
