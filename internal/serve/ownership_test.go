package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
)

// TestAbandonedAttemptOwnsItsGraph pins the ownership rule of the
// in-place decode (decodeRequest): nothing that outlives a request points
// into the pooled scratch its body was read into. A chaos hang abandons
// the first attempt of every request, and that attempt holds the
// request's parsedRequest and graph. Later requests then reuse the
// scratch, its body buffer and its lists; the abandoned graph's names and
// every served body must stay intact. Under -race a goroutine reads the
// abandoned graph's names while the later requests write their scratch.
func TestAbandonedAttemptOwnsItsGraph(t *testing.T) {
	orc := experiment.NewOrchestrator(2)
	defer orc.Close()
	s := New(Config{Orchestrator: orc,
		Faults:      &experiment.FaultPlan{Seed: 1, HangRate: 1, HangDuration: 10 * time.Second, MaxFaultyAttempts: 1},
		Retry:       experiment.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		UnitTimeout: 20 * time.Millisecond, DefaultBudget: 5 * time.Second, MaxBudget: 5 * time.Second,
		Admission: AdmissionConfig{MaxInflight: 4, MaxQueue: 64}})
	ref := New(Config{Orchestrator: orc, DefaultBudget: 5 * time.Second, MaxBudget: 5 * time.Second})

	// Two spellings of one graph whose names differ in their first byte
	// and so lie at the same offsets: decoding b over a's scratch rewrites
	// every byte of a's names.
	base := generatedBodies(t, 1, []int{4})[0]
	rename := regexp.MustCompile(`("(?:name|from|to)":")`)
	a := rename.ReplaceAll(base, []byte("${1}a-"))
	b := rename.ReplaceAll(base, []byte("${1}b-"))
	wantA, err := decodeWire(a)
	if err != nil {
		t.Fatal(err)
	}

	sc := new(requestScratch)
	var req wireRequest
	if err := decodeRequest(bytes.NewReader(a), &req, sc); err != nil {
		t.Fatal(err)
	}
	pr, perr := s.parse(&req, TierFull)
	if perr != nil {
		t.Fatal(perr)
	}
	rs := &reqState{}
	bodyA, err := s.compute(context.Background(), pr, rs)
	if err != nil || rs.retries != 1 {
		t.Fatalf("compute: %v after %d retries, want an answer after one abandoned attempt", err, rs.retries)
	}
	if pr.wire != nil {
		t.Fatal("the parsed request kept its wire once the graph was built")
	}
	// changed reports the first subtask name of the abandoned graph that is
	// not what the request named it.
	nodes := pr.graph.NodesView()
	changed := func() string {
		for i, st := range wantA.Graph.Subtasks {
			if nodes[i].Name != st.Name {
				return nodes[i].Name
			}
		}
		return ""
	}

	var second wireRequest
	if err := decodeRequest(bytes.NewReader(b), &second, sc); err != nil {
		t.Fatal(err)
	}
	if got := req.Graph.Subtasks[0].Name; got != "b-t0" {
		t.Fatalf("the first request's wire reads %q after its scratch was reused, want b-t0", got)
	}
	if n := changed(); n != "" {
		t.Fatalf("the abandoned graph's name changed to %q when its scratch was reused", n)
	}
	putScratch(sc)

	// The handler's path: every request reuses pooled scratch, and its
	// first attempt hangs and is abandoned.
	bodies := append(generatedBodies(t, 1, []int{2, 4}), a, b)
	serve := func(s *Server, body []byte) []byte {
		rec := httptest.NewRecorder()
		s.handleAssign(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		want[i] = serve(ref, body)
	}
	if !bytes.Equal(bodyA, want[len(bodies)-2]) {
		t.Fatalf("computed body\n%s\nwant\n%s", bodyA, want[len(bodies)-2])
	}

	done := make(chan struct{})
	readerDone := make(chan string)
	go func() {
		for {
			select {
			case <-done:
				readerDone <- changed()
				return
			default:
				if n := changed(); n != "" {
					<-done
					readerDone <- n
					return
				}
				runtime.Gosched()
			}
		}
	}()
	const clients, rounds = 4, 2
	served := make([][][]byte, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for k := range bodies {
					i := (k + c + r) % len(bodies)
					served[c] = append(served[c], serve(s, bodies[i]))
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if n := <-readerDone; n != "" {
		t.Errorf("the abandoned graph's name changed to %q while later requests ran", n)
	}
	for c := range clients {
		for j, got := range served[c] {
			r, k := j/len(bodies), j%len(bodies)
			if i := (k + c + r) % len(bodies); !bytes.Equal(got, want[i]) {
				t.Errorf("client %d request %d (body %d):\n%s\nwant\n%s", c, j, i, got, want[i])
			}
		}
	}
	if !bytes.Equal(bodyA, want[len(bodies)-2]) {
		t.Errorf("the first computed body changed:\n%s", bodyA)
	}
}
