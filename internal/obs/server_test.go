package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/metrics"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	rec := metrics.New()
	rec.Observe(metrics.StageAssign, time.Millisecond)
	rec.UnitRetry()
	rec.JournalReplay()
	prog := NewProgress()
	prog.StartTable("Figure 2", 4)
	prog.UnitDone("Figure 2")

	srv, err := Serve("127.0.0.1:0", rec, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body, ct := get(t, base+"/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/healthz content type = %q", ct)
	}

	body, ct = get(t, base+"/metrics")
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"dlexp_stage_duration_seconds_bucket",
		`dlexp_unit_events_total{kind="retry"} 1`,
		`dlexp_units{state="total"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	body, ct = get(t, base+"/progress")
	if ct != "application/json" {
		t.Errorf("/progress content type = %q", ct)
	}
	var rep ProgressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if rep.UnitsDone != 1 || rep.UnitsTotal != 4 || rep.Retries != 1 || rep.JournalReplayed != 1 {
		t.Errorf("/progress = %+v", rep)
	}
	if len(rep.Stages) != 1 || rep.Stages[0].Stage != "assign" || rep.Stages[0].P50 <= 0 {
		t.Errorf("/progress stages = %+v", rep.Stages)
	}

	// pprof composes on the same mux.
	if body, _ = get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestServerNilSources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, _ := get(t, "http://"+srv.Addr()+"/progress")
	var rep ProgressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/progress with nil sources: %v", err)
	}
	if body, _ = get(t, "http://"+srv.Addr()+"/metrics"); !strings.Contains(body, "dlexp_units") {
		t.Error("/metrics with nil sources missing families")
	}
}

func TestServerBadAddressFailsEagerly(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", nil, nil, nil); err == nil {
		t.Error("bad address accepted")
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil server Close = %v", err)
	}
}
