package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/sfcache"
)

// testGraphJSON returns a small three-stage pipeline graph; seed varies the
// costs so distinct seeds produce distinct request contents.
func testGraphJSON(seed int) string {
	return fmt.Sprintf(`{"subtasks":[
		{"name":"a","cost":%d},
		{"name":"b","cost":3},
		{"name":"c","cost":2,"endToEnd":40}],
	  "arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"c","size":2}]}`, 2+seed%5)
}

func reqBody(seed int, extra string) string {
	return fmt.Sprintf(`{"graph": %s, "procs": 3%s}`, testGraphJSON(seed), extra)
}

// startServer boots a server on a loopback port and registers a draining
// cleanup. Tests that drain explicitly may call Drain themselves (the
// cleanup is idempotent).
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	s := New(cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

func post(t *testing.T, s *Server, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/assign", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeResponse(t *testing.T, b []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decode response %q: %v", b, err)
	}
	return &r
}

func decodeError(t *testing.T, b []byte) *Error {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil {
		t.Fatalf("decode error body %q: %v", b, err)
	}
	return &eb.Err
}

// TestAssignBasic: a healthy request returns a verdict with one window per
// subtask, and the windows nest inside the end-to-end deadline.
func TestAssignBasic(t *testing.T) {
	s := startServer(t, Config{})
	resp, b := post(t, s, reqBody(0, `, "assigner": "ADAPT"`), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	r := decodeResponse(t, b)
	if r.Assigner != "ADAPT/CCNE" {
		t.Errorf("assigner %q, want ADAPT/CCNE", r.Assigner)
	}
	if len(r.Subtasks) != 3 {
		t.Fatalf("%d subtask windows, want 3", len(r.Subtasks))
	}
	if !r.Verdict.Schedulable {
		t.Errorf("graph unexpectedly unschedulable: %+v", r.Verdict)
	}
	for _, st := range r.Subtasks {
		if st.Deadline > 40+1e-9 || st.Release < 0 {
			t.Errorf("window %+v escapes [0, 40]", st)
		}
	}
}

// TestIdempotentRetries: repeated identical requests return byte-identical
// bodies — the second from the content-addressed cache (X-Cache: hit).
func TestIdempotentRetries(t *testing.T) {
	s := startServer(t, Config{})
	resp1, b1 := post(t, s, reqBody(1, ``), nil)
	resp2, b2 := post(t, s, reqBody(1, ``), nil)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d/%d", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("retry body differs:\n%s\n%s", b1, b2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second response X-Cache = %q, want hit", got)
	}
	// Equivalent content in different wire form (budget differs, graph
	// formatting differs) still addresses the same answer.
	resp3, b3 := post(t, s, reqBody(1, `, "budgetMs": 9999`), nil)
	if resp3.StatusCode != 200 || !bytes.Equal(b1, b3) {
		t.Errorf("budget-only change missed the cache: %d %s", resp3.StatusCode, b3)
	}
}

// TestTaxonomyInvalid: malformed requests map to 400 invalid, each with
// exactly one taxonomy error.
func TestTaxonomyInvalid(t *testing.T) {
	s := startServer(t, Config{})
	for _, tc := range []struct{ name, body string }{
		{"bad json", `{`},
		{"no graph", `{"procs": 2}`},
		{"bad assigner", reqBody(0, `, "assigner": "MAGIC"`)},
		{"bad policy", reqBody(0, `, "policy": "RANDOM"`)},
		{"bad procs", fmt.Sprintf(`{"graph": %s, "procs": -1}`, testGraphJSON(0))},
		{"cyclic graph", `{"graph": {"subtasks":[{"name":"a","cost":1,"endToEnd":5},{"name":"b","cost":1}],
			"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"a","size":1}]}}`},
	} {
		resp, b := post(t, s, tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, b)
			continue
		}
		if e := decodeError(t, b); e.Class != ClassInvalid || e.Retryable {
			t.Errorf("%s: error %+v, want non-retryable invalid", tc.name, e)
		}
	}
}

// TestTenantQuota: a tenant over its token bucket is shed with 429 +
// Retry-After while another tenant is admitted untouched.
func TestTenantQuota(t *testing.T) {
	s := startServer(t, Config{
		Admission: AdmissionConfig{TenantRate: 1, TenantBurst: 2},
	})
	var last *http.Response
	var lastBody []byte
	for i := 0; i < 3; i++ {
		last, lastBody = post(t, s, reqBody(i, ``), map[string]string{"X-Tenant": "noisy"})
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3rd burst request: status %d, want 429 (body %s)", last.StatusCode, lastBody)
	}
	if ra := last.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeError(t, lastBody); e.Class != ClassOverload || !e.Retryable {
		t.Errorf("error %+v, want retryable overload", e)
	}
	resp, b := post(t, s, reqBody(7, ``), map[string]string{"X-Tenant": "quiet"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other tenant sheds too: %d %s", resp.StatusCode, b)
	}
}

// TestQueueBound: when inflight and queue are both full, the next request
// is rejected immediately with 429 instead of queueing without bound.
func TestQueueBound(t *testing.T) {
	adm := newAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 1}, 1)
	rel1, _, err1 := adm.acquireSlot(context.Background())
	if err1 != nil {
		t.Fatal(err1)
	}
	defer rel1()
	// Occupy the single queue slot with a second request.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan struct{})
	go func() {
		close(queued)
		if rel, _, err := adm.acquireSlot(ctx); err == nil {
			rel()
		}
	}()
	<-queued
	// Wait until the goroutine registers as waiting.
	for i := 0; adm.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := adm.acquireSlot(context.Background()); err == nil || err.Class != ClassOverload {
		t.Fatalf("third request: %+v, want overload", err)
	}
	if adm.shedQueue.Load() != 1 {
		t.Errorf("shedQueue = %d, want 1", adm.shedQueue.Load())
	}
	// A queued request whose budget expires is transient, not overload.
	bctx, bcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer bcancel()
	// The queue slot is taken; temporarily raise waiting past the bound
	// by cancelling the queued goroutine first.
	cancel()
	for i := 0; adm.waiting.Load() != 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := adm.acquireSlot(bctx); err == nil || err.Class != ClassTransient {
		t.Fatalf("expired-in-queue request: %+v, want transient", err)
	}
}

// TestLadderHysteresis: the ladder escalates only after sustained pressure,
// one rung at a time, and relaxes only after a longer calm streak.
func TestLadderHysteresis(t *testing.T) {
	var l Ladder
	l.Observe(1.0)
	l.Observe(1.0)
	if l.Tier() != TierFull {
		t.Fatalf("escalated after 2 hot samples: %v", l.Tier())
	}
	l.Observe(1.0)
	if l.Tier() != TierCheap {
		t.Fatalf("tier after 3 hot samples: %v, want cheap", l.Tier())
	}
	// A calm blip resets the hot streak but does not relax yet.
	l.Observe(0.5)
	for i := 0; i < escalateAfter-1; i++ {
		l.Observe(1.0)
	}
	if l.Tier() != TierCheap {
		t.Fatalf("tier moved on a broken streak: %v", l.Tier())
	}
	for i := 0; i < escalateAfter*3; i++ {
		l.Observe(1.0)
	}
	if l.Tier() != TierShed {
		t.Fatalf("tier under sustained pressure: %v, want shed", l.Tier())
	}
	for i := 0; i < relaxAfter; i++ {
		l.Observe(0.0)
	}
	if l.Tier() != TierCacheOnly {
		t.Fatalf("tier after calm streak: %v, want cache-only (one rung)", l.Tier())
	}
}

// TestDegradeLadderServing: the cheap tier answers unpinned requests with
// PURE, honors pinned assigners, and the cache-only tier serves hits and
// sheds misses; shed tier rejects everything.
func TestDegradeLadderServing(t *testing.T) {
	s := startServer(t, Config{})
	// Warm the cache at full fidelity (unpinned → ADAPT).
	respWarm, warmBody := post(t, s, reqBody(2, ``), nil)
	if respWarm.StatusCode != 200 {
		t.Fatalf("warm: %d %s", respWarm.StatusCode, warmBody)
	}

	s.Ladder().SetTier(TierCheap)
	resp, b := post(t, s, reqBody(3, ``), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cheap tier: %d %s", resp.StatusCode, b)
	}
	if r := decodeResponse(t, b); r.Assigner != "PURE/CCNE" {
		t.Errorf("cheap-tier unpinned assigner %q, want PURE/CCNE", r.Assigner)
	}
	resp, b = post(t, s, reqBody(3, `, "assigner": "ADAPT"`), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cheap tier pinned: %d %s", resp.StatusCode, b)
	}
	if r := decodeResponse(t, b); r.Assigner != "ADAPT/CCNE" {
		t.Errorf("cheap-tier pinned assigner %q, want ADAPT/CCNE", r.Assigner)
	}

	s.Ladder().SetTier(TierCacheOnly)
	// The warmed request (unpinned, keyed as ADAPT at full tier) no
	// longer matches: unpinned now resolves to PURE. Its PURE twin was
	// answered at the cheap tier above, so seed 3 unpinned is a hit.
	resp, b = post(t, s, reqBody(3, ``), nil)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("cache-only hit: %d X-Cache=%q %s", resp.StatusCode, resp.Header.Get("X-Cache"), b)
	}
	resp, b = post(t, s, reqBody(4, ``), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("cache-only miss: %d, want 429 (%s)", resp.StatusCode, b)
	}

	s.Ladder().SetTier(TierShed)
	resp, b = post(t, s, reqBody(3, ``), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("shed tier: %d, want 429 (%s)", resp.StatusCode, b)
	}
	if e := decodeError(t, b); e.Class != ClassOverload {
		t.Errorf("shed error class %v", e.Class)
	}
	s.Ladder().SetTier(TierFull)
}

// TestBudgetExpiry: a request whose budget cannot fit the computation is
// abandoned with a transient taxonomy error, not completed late.
func TestBudgetExpiry(t *testing.T) {
	s := startServer(t, Config{
		// A hang fault longer than any budget forces every attempt to
		// run into the request deadline.
		Faults: &experiment.FaultPlan{HangRate: 1, HangDuration: 10 * time.Second, MaxFaultyAttempts: 99},
	})
	start := time.Now()
	resp, b := post(t, s, reqBody(5, ``), map[string]string{"X-Budget-Ms": "150"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, b)
	}
	if e := decodeError(t, b); e.Class != ClassTransient || !e.Retryable {
		t.Errorf("error %+v, want retryable transient", e)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline-dead request held for %v", elapsed)
	}
}

// TestDrainLifecycle: /readyz flips through the drain while /healthz stays
// green, requests arriving mid-drain get a transient error, and drain
// converges.
func TestDrainLifecycle(t *testing.T) {
	s := startServer(t, Config{MaxBudget: time.Second, DrainSlack: 300 * time.Millisecond})
	get := func(path string) int {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/readyz"); c != 200 {
		t.Fatalf("/readyz before drain: %d", c)
	}
	if c := get("/healthz"); c != 200 {
		t.Fatalf("/healthz before drain: %d", c)
	}
	// Flip draining first (as Drain does) and verify the serving surface
	// refuses new work with a taxonomy error while still alive.
	s.Readiness().SetDraining(true)
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d, want 503", c)
	}
	if c := get("/healthz"); c != 200 {
		t.Errorf("/healthz during drain: %d, want 200", c)
	}
	resp, b := post(t, s, reqBody(0, ``), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain: %d (%s)", resp.StatusCode, b)
	}
	if e := decodeError(t, b); e.Class != ClassTransient {
		t.Errorf("drain refusal class %v, want transient", e.Class)
	}
	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 1*time.Second+300*time.Millisecond+time.Second {
		t.Errorf("drain took %v", elapsed)
	}
}

// TestDrainClosesSilentConnections: a connection that never sends a
// request (a client's spare keep-alive dial) must not hold the drain past
// MaxBudget + DrainSlack. net/http's Shutdown alone counts such a
// connection as active for 5s, so Drain closes it.
func TestDrainClosesSilentConnections(t *testing.T) {
	const bound = 500*time.Millisecond + 200*time.Millisecond
	s := startServer(t, Config{MaxBudget: 500 * time.Millisecond, DrainSlack: 200 * time.Millisecond})
	silent, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts in order, so once a later connection is answered
	// the silent one has been accepted and is in StateNew.
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > bound/2 {
		t.Errorf("drain took %v with a silent connection open, want well inside %v", elapsed, bound)
	}
	silent.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := silent.Read(make([]byte, 1)); err == nil {
		t.Errorf("silent connection still open after drain (read %d bytes)", n)
	}
}

// TestResponseCacheFaultSlotRelease: a failed computation must release its
// singleflight slot so the next identical request computes afresh.
func TestResponseCacheFaultSlotRelease(t *testing.T) {
	s := New(Config{CacheEntries: 4})
	defer s.orc.Close()
	fail := func(sfcache.Outcome) ([]byte, error) { return nil, Errorf(ClassTransient, "injected") }
	if _, out, err := s.cache.Do(context.Background(), "k", fail); out != sfcache.Miss || err == nil {
		t.Fatalf("first call: outcome %v err %v, want an owner's failure", out, err)
	}
	if _, out, _ := s.cache.Do(context.Background(), "k", fail); out != sfcache.Miss {
		t.Fatal("slot pinned by failure: second call not owner")
	}
}

// TestResponseCacheEviction: the cache holds at most CacheEntries settled
// bodies, and a full cache re-admits new bodies.
func TestResponseCacheEviction(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	defer s.orc.Close()
	for i := 0; i < 8; i++ {
		publish(s, fmt.Sprintf("k%d", i))
		if n := s.cache.Len(); n > 2 {
			t.Fatalf("after %d bodies the cache holds %d, want at most 2", i+1, n)
		}
	}
	if _, ok := s.cache.Peek("k7"); !ok {
		t.Error("the newest body was not re-admitted into a full cache")
	}
}

// TestMetricsExposition: the serving families appear on /metrics.
func TestMetricsExposition(t *testing.T) {
	s := startServer(t, Config{})
	post(t, s, reqBody(0, ``), nil)
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"dlserve_tier 0",
		`dlserve_requests_total{outcome="ok"} 1`,
		`dlserve_shed_total{gate="queue"} 0`,
		`dlserve_response_cache_total{event="miss"} 1`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
