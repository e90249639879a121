package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer for run's banner output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRe = regexp.MustCompile(`dlserve on http://(\S+)`)

// startRun boots run() on a loopback port and returns the bound address
// plus a cancel-and-wait shutdown function returning run's error.
func startRun(t *testing.T, args []string, out *syncBuffer) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			return m[1], func() error {
				cancel()
				select {
				case err := <-done:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("run did not return after cancel")
					return nil
				}
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no listen banner in %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunServeDrain: the daemon serves a request, then a SIGTERM-style
// context cancellation drains it cleanly (exit 0 path).
func TestRunServeDrain(t *testing.T) {
	var out syncBuffer
	addr, shutdown := startRun(t, []string{"-faults", "err=0.3,seed=5", "-retries", "4"}, &out)

	body := `{"graph": {"subtasks": [{"name":"a","cost":2},{"name":"b","cost":3,"endToEnd":20}],
		"arcs": [{"from":"a","to":"b","size":1}]}, "procs": 4, "assigner": "ADAPT", "budgetMs": 500}`
	resp, err := http.Post("http://"+addr+"/v1/assign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign: %d %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"schedulable":true`) {
		t.Errorf("no verdict in %s", b)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		r, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, r.StatusCode)
		}
	}
	http.DefaultClient.CloseIdleConnections()

	if err := shutdown(); err != nil {
		t.Fatalf("drain error: %v", err)
	}
	got := out.String()
	for _, want := range []string{"chaos mode: err=0.3,seed=5", "drain: stopped accepting", "drain: complete"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunBadFlags: flag and fault-spec errors surface as non-nil (exit 1).
func TestRunBadFlags(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-faults", "bogus"}, &out); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

// TestRunObservabilityFlags: -slo reshapes the classes served on /slo,
// -access-log and -trace create their files, the banner lists /slo, and a
// classed request lands in the right class with its request id echoed.
// TestRunHelp: -h and -help print the usage and succeed without serving.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{arg}, &buf); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if out := buf.String(); !strings.HasPrefix(out, "Usage of dlserve:") || strings.Contains(out, "help requested") {
			t.Errorf("%s printed:\n%s", arg, out)
		}
	}
}

func TestRunObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	accessPath := filepath.Join(dir, "access.jsonl")
	tracePath := filepath.Join(dir, "trace.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	var out syncBuffer
	addr, shutdown := startRun(t, []string{
		"-slo", "interactive=250ms/0.999",
		"-access-log", accessPath,
		"-trace", tracePath,
		"-events", eventsPath,
	}, &out)

	if !strings.Contains(out.String(), "/slo") {
		t.Errorf("banner does not list /slo: %q", out.String())
	}

	body := `{"graph": {"subtasks": [{"name":"a","cost":2},{"name":"b","cost":3,"endToEnd":20}],
		"arcs": [{"from":"a","to":"b","size":1}]}, "procs": 4, "class": "interactive", "budgetMs": 500}`
	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/assign", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "flag-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "flag-test-1" {
		t.Errorf("request id not echoed: %q", got)
	}

	r, err := http.Get("http://" + addr + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	sloBody, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var doc struct {
		Classes []struct {
			Class     string `json:"class"`
			Objective string `json:"objective"`
			Served    int64  `json:"served"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(sloBody, &doc); err != nil {
		t.Fatalf("/slo is not JSON: %v in %s", err, sloBody)
	}
	found := false
	for _, c := range doc.Classes {
		if c.Class == "interactive" {
			found = true
			if c.Objective != "250ms" {
				t.Errorf("-slo did not reshape the objective: %q", c.Objective)
			}
			if c.Served != 1 {
				t.Errorf("classed request not counted: served=%d", c.Served)
			}
		}
	}
	if !found {
		t.Fatalf("no interactive class on /slo: %s", sloBody)
	}
	http.DefaultClient.CloseIdleConnections()

	if err := shutdown(); err != nil {
		t.Fatalf("drain error: %v", err)
	}

	access, err := os.ReadFile(accessPath)
	if err != nil || !bytes.Contains(access, []byte(`"req":"flag-test-1"`)) {
		t.Errorf("access log missing the request (%v): %s", err, access)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil || !bytes.HasPrefix(trace, []byte("[")) {
		t.Errorf("trace file is not a Chrome trace (%v): %.40s", err, trace)
	}
	events, err := os.ReadFile(eventsPath)
	if err != nil || !bytes.Contains(events, []byte(`"kind":"request"`)) {
		t.Errorf("events file has no request span (%v)", err)
	}
}

// TestRunBadObsFlags: malformed -slo specs and uncreatable sink paths
// surface as startup errors, not silently-ignored flags.
func TestRunBadObsFlags(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-slo", "interactive=bogus"}, &out); err == nil {
		t.Error("malformed -slo spec accepted")
	}
	if err := run(context.Background(), []string{"-slo", "gold=1s"}, &out); err == nil {
		t.Error("unknown -slo class accepted")
	}
	if err := run(context.Background(), []string{"-access-log", "/no/such/dir/x.log"}, &out); err == nil {
		t.Error("uncreatable access-log path accepted")
	}
}
