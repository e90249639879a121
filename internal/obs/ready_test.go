package obs

import (
	"io"
	"net/http"
	"testing"
)

func probe(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestReadyzSplitFromHealthz walks the lifecycle of a simulated drain and
// asserts the two probes diverge exactly as documented: /healthz stays 200
// throughout (the process is alive at every stage), while /readyz is 503
// before startup, 200 only while started ∧ not draining, and 503 again
// once the drain begins.
func TestReadyzSplitFromHealthz(t *testing.T) {
	ready := NewReadiness()
	srv, err := Serve("127.0.0.1:0", nil, nil, ready)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	assert := func(stage string, wantReady int) {
		t.Helper()
		if code, _ := probe(t, base+"/healthz"); code != http.StatusOK {
			t.Errorf("%s: /healthz = %d, want 200", stage, code)
		}
		code, body := probe(t, base+"/readyz")
		if code != wantReady {
			t.Errorf("%s: /readyz = %d (%q), want %d", stage, code, body, wantReady)
		}
	}

	assert("before startup", http.StatusServiceUnavailable)
	if _, reason := ready.Ready(); reason != "starting" {
		t.Errorf("pre-start reason = %q, want starting", reason)
	}

	ready.SetStarted(true)
	assert("serving", http.StatusOK)

	// Simulated drain: the pool is still finishing in-flight work, so the
	// process must stay alive (healthz 200) while refusing new traffic.
	ready.SetDraining(true)
	assert("draining", http.StatusServiceUnavailable)
	if _, reason := ready.Ready(); reason != "draining" {
		t.Errorf("drain reason = %q, want draining", reason)
	}
	if !ready.Draining() {
		t.Error("Draining() = false during drain")
	}
}

// TestReadyzWithoutReadiness: the batch-CLI configuration (no readiness
// state) keeps /readyz permanently green, preserving the pre-split
// behavior of probes pointed at dlexp -http.
func TestReadyzWithoutReadiness(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := probe(t, "http://"+srv.Addr()+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz without readiness = %d, want 200", code)
	}
}

// TestReadinessNilSafe: a nil Readiness reports not-ready and ignores
// writes, like every other nil-safe obs type.
func TestReadinessNilSafe(t *testing.T) {
	var r *Readiness
	r.SetStarted(true)
	r.SetDraining(true)
	if ok, reason := r.Ready(); ok || reason != "starting" {
		t.Errorf("nil Readiness: ready=%v reason=%q", ok, reason)
	}
	if r.Draining() {
		t.Error("nil Readiness reports draining")
	}
}
