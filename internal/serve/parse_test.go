package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/sfcache"
	"deadlinedist/internal/taskgraph"
)

// decodeWire decodes a request body the way handleAssign does.
func decodeWire(body []byte) (*wireRequest, error) {
	var req wireRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// generatedBodies returns request bodies for paper-default graphs of every
// execution-time scenario, perGraph graphs each, at each processor count.
func generatedBodies(t testing.TB, perScenario int, procs []int) [][]byte {
	t.Helper()
	var bodies [][]byte
	for si, sc := range generator.Scenarios() {
		graphs, err := generator.Batch(generator.Default(sc), rng.New(uint64(41+si)), perScenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range graphs {
			raw, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range procs {
				body, err := json.Marshal(Request{Graph: raw, Procs: p, Assigner: "ADAPT", Class: "batch"})
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}
	return bodies
}

// respell writes every graph number of a json.Marshal body in another
// spelling of the same value: 2.5 as 2.5e0.
var respell = regexp.MustCompile(`("(?:cost|size|release|endToEnd)":-?[0-9]+(?:\.[0-9]+)?)([,}])`)

// TestContentKeyClasses: two requests share parse's content key exactly
// when their graphs' canonical bytes and their option suffixes are equal.
// The key hashes the graph's values (taskgraph.Wire.AppendKey), not its
// canonical text, so this is the contract that lets a hit skip Build.
func TestContentKeyClasses(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	byKey, byCanon := map[string]string{}, map[string]string{}
	// check records parse's key for req beside what the key must stand
	// for, the canonical bytes and the option suffix, and fails on a key
	// shared by two classes or a class split over two keys.
	check := func(req *wireRequest) string {
		t.Helper()
		pr, perr := s.parse(req, TierFull)
		if perr != nil {
			t.Fatalf("%+v: %v", req.Graph, perr)
		}
		graph, err := req.Graph.AppendCanonical(nil)
		if err != nil {
			t.Fatal(err)
		}
		key := pr.key
		canon := fmt.Sprintf("%s|procs=%d|assigner=%s|policy=%s", graph, pr.sys.NumProcs(), pr.label, policyName(pr.policy))
		if c, ok := byKey[key]; ok && c != canon {
			t.Fatalf("key %s shared by\n%s\n%s", key, c, canon)
		}
		if k, ok := byCanon[canon]; ok && k != key {
			t.Fatalf("canonical bytes %s under keys %s and %s", canon, k, key)
		}
		byKey[key], byCanon[canon] = canon, key
		return key
	}
	decode := func(body string) *wireRequest {
		t.Helper()
		var req wireRequest
		if err := decodeRequest(strings.NewReader(body), &req); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		return &req
	}

	n := 0
	for _, body := range generatedBodies(t, 4, []int{2, 4, 8, 16}) {
		for _, policy := range []string{"", "LLF"} {
			b := body
			if policy != "" {
				b = fmt.Appendf(nil, `%s,"policy":%q}`, body[:len(body)-1], policy)
			}
			twin := respell.ReplaceAll(b, []byte("${1}e0$2"))
			if bytes.Equal(twin, b) {
				t.Fatal("no number respelled")
			}
			if check(decode(string(b))) != check(decode(string(twin))) {
				t.Fatalf("respelled twin keys apart:\n%s\n%s", b, twin)
			}
			n++
		}
	}
	if n != 3*4*4*2 || len(byKey) != n {
		t.Fatalf("checked %d requests, %d keys", n, len(byKey))
	}

	graph := func(sts, arcs string) string {
		return `{"graph":{"subtasks":[` + sts + `],"arcs":[` + arcs + `]},"procs":4}`
	}
	const ab = `{"name":"a","cost":1},{"name":"b","cost":2,"endToEnd":9}`
	const arc = `{"from":"a","to":"b","size":1}`
	withName := func(name string) *wireRequest {
		return &wireRequest{Request: Request{Procs: 4}, Graph: taskgraph.Wire{
			Subtasks: []taskgraph.WireSubtask{{Name: name, Cost: 1}, {Name: "b", Cost: 2, EndToEnd: 9}},
			Arcs:     []taskgraph.WireArc{{From: name, To: "b", Size: 1}},
		}}
	}
	for _, tc := range []struct {
		name  string
		reqs  []*wireRequest
		share bool
	}{
		{"number spellings", []*wireRequest{
			decode(graph(`{"name":"a","cost":1},{"name":"b","cost":2,"endToEnd":9}`, arc)),
			decode(graph(`{"name":"a","cost":1.0},{"name":"b","cost":2,"endToEnd":9}`, arc)),
			decode(graph(`{"name":"a","cost":1e0},{"name":"b","cost":2,"endToEnd":9}`, arc)),
			decode(graph(`{"name":"a","cost":10e-1},{"name":"b","cost":2,"endToEnd":9}`, arc)),
		}, true},
		{"release -0 and none", []*wireRequest{
			decode(graph(`{"name":"a","cost":1,"release":-0},{"name":"b","cost":2,"endToEnd":9}`, arc)),
			decode(graph(ab, arc)),
		}, true},
		{"endpoint \"\" and t0", []*wireRequest{
			decode(graph(`{"name":"","cost":1},{"name":"b","cost":2,"endToEnd":9}`, `{"from":"","to":"b","size":1}`)),
			decode(graph(`{"name":"","cost":1},{"name":"b","cost":2,"endToEnd":9}`, `{"from":"t0","to":"b","size":1}`)),
		}, true},
		{"key order", []*wireRequest{
			decode(graph(ab, arc)),
			decode(`{"procs":4,"graph":{"arcs":[{"size":1,"to":"b","from":"a"}],` +
				`"subtasks":[{"cost":1,"name":"a"},{"endToEnd":9,"cost":2,"name":"b"}]}}`),
		}, true},
		{"escaped name", []*wireRequest{ // the escape goes to encoding/json
			decode(graph(`{"name":"\u00e9","cost":1},{"name":"b","cost":2,"endToEnd":9}`, `{"from":"é","to":"b","size":1}`)),
			decode(graph(`{"name":"é","cost":1},{"name":"b","cost":2,"endToEnd":9}`, `{"from":"é","to":"b","size":1}`)),
		}, true},
		{"invalid UTF-8 bodies", []*wireRequest{ // encoding/json decodes each to U+FFFD
			decode(graph("{\"name\":\"\xff\",\"cost\":1},{\"name\":\"b\",\"cost\":2,\"endToEnd\":9}", "{\"from\":\"\xff\",\"to\":\"b\",\"size\":1}")),
			decode(graph("{\"name\":\"\xfe\",\"cost\":1},{\"name\":\"b\",\"cost\":2,\"endToEnd\":9}", "{\"from\":\"\xfe\",\"to\":\"b\",\"size\":1}")),
			decode(graph("{\"name\":\"\ufffd\",\"cost\":1},{\"name\":\"b\",\"cost\":2,\"endToEnd\":9}", "{\"from\":\"\ufffd\",\"to\":\"b\",\"size\":1}")),
		}, true},
		// Wires whose names hold invalid bytes (set by a Go caller, never
		// decoded from JSON) write each as the text \ufffd.
		{"invalid UTF-8 wires", []*wireRequest{withName("\xff"), withName("\xfe")}, true},
		{"invalid UTF-8 wire and U+FFFD", []*wireRequest{withName("\xff"), withName("\ufffd")}, false},
		{"cost -0 and 0", []*wireRequest{
			decode(graph(`{"name":"a","cost":-0},{"name":"b","cost":2,"endToEnd":9}`, arc)),
			decode(graph(`{"name":"a","cost":0},{"name":"b","cost":2,"endToEnd":9}`, arc)),
		}, false},
		{"pinned 0 and none", []*wireRequest{
			decode(graph(`{"name":"a","cost":1,"pinned":0},{"name":"b","cost":2,"endToEnd":9}`, arc)),
			decode(graph(ab, arc)),
		}, false},
	} {
		first := check(tc.reqs[0])
		for _, req := range tc.reqs[1:] {
			if got := check(req) == first; got != tc.share {
				t.Errorf("%s: share a key = %v, want %v", tc.name, got, tc.share)
			}
		}
	}
}

// TestParseHitSkipsBuild: a request whose key has a settled answer is
// parsed without building its graph; without the answer it is built.
func TestParseHitSkipsBuild(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	body := generatedBodies(t, 1, []int{4})[0]
	req, err := decodeWire(body)
	if err != nil {
		t.Fatal(err)
	}
	pr, perr := s.parse(req, TierFull)
	if perr != nil {
		t.Fatal(perr)
	}
	if pr.graph == nil {
		t.Fatal("miss did not build the graph")
	}
	publish(s, pr.key)
	if pr, perr = s.parse(req, TierFull); perr != nil {
		t.Fatal(perr)
	}
	if pr.graph != nil {
		t.Fatal("hit built the graph")
	}
	// An owner that finds the entry evicted builds the graph itself.
	g, perr := pr.graphOrBuild()
	if perr != nil || g == nil || g.NumSubtasks() != len(req.Graph.Subtasks) {
		t.Fatalf("deferred build: %v, %v", g, perr)
	}
}

// TestParseAmbiguousNamesBuild: with an unnamed subtask, two wires can
// share canonical bytes, and then they are accepted or refused alike.
// Subtasks ["", "t0"] encode like ["t0", "t0"], and Build refuses both as
// ambiguous; no accepted wire has their key, so no answer is ever cached
// under it. An arc may name the unnamed subtask by its generated name
// "t0" as well as by "": both wires parse, share the key and build the
// same graph, so a hit may skip the build.
func TestParseAmbiguousNamesBuild(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	decode := func(graph string) *wireRequest {
		t.Helper()
		req, err := decodeWire([]byte(`{"graph":` + graph + `}`))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	for _, tc := range []struct {
		wires []string // sharing one key
		valid bool
	}{
		{ // Duplicate names, one of them generated.
			wires: []string{
				`{"subtasks":[{"name":"","cost":1},{"name":"t0","cost":2,"endToEnd":9}],"arcs":[{"from":"","to":"t0","size":1}]}`,
				`{"subtasks":[{"name":"t0","cost":1},{"name":"t0","cost":2,"endToEnd":9}],"arcs":[{"from":"t0","to":"t0","size":1}]}`,
			},
		},
		{ // An arc naming the unnamed subtask either way.
			wires: []string{
				`{"subtasks":[{"name":"","cost":1},{"name":"b","cost":2,"endToEnd":9}],"arcs":[{"from":"","to":"b","size":1}]}`,
				`{"subtasks":[{"name":"","cost":1},{"name":"b","cost":2,"endToEnd":9}],"arcs":[{"from":"t0","to":"b","size":1}]}`,
			},
			valid: true,
		},
	} {
		key, kerr := contentKey(&decode(tc.wires[0]).Graph, 4, "ADAPT", "EDF")
		if kerr != nil {
			t.Fatal(kerr)
		}
		var graphs []string
		for _, wire := range tc.wires {
			req := decode(wire)
			if k, _ := contentKey(&req.Graph, 4, "ADAPT", "EDF"); k != key {
				t.Fatalf("%s: expected to share the key of %s", wire, tc.wires[0])
			}
			pr, perr := s.parse(req, TierFull)
			if !tc.valid {
				if perr == nil || perr.Class != ClassInvalid {
					t.Errorf("%s: %v, want invalid", wire, perr)
				}
				continue
			}
			if perr != nil {
				t.Fatalf("%s: %v", wire, perr)
			}
			g, err := pr.graph.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, string(g))
		}
		if tc.valid && graphs[0] != graphs[1] {
			t.Errorf("wires sharing a key build different graphs:\n%s\n%s", graphs[0], graphs[1])
		}
	}
}

// TestReencodedGraphHits: the same graph re-encoded with other
// whitespace, key order, key case and number spelling addresses the same
// cached answer, byte for byte.
func TestReencodedGraphHits(t *testing.T) {
	s := startServer(t, Config{})
	orig := `{"graph":{"subtasks":[{"name":"a","cost":2},{"name":"b","cost":3},{"name":"c","cost":2,"endToEnd":40}],` +
		`"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"c","size":2}]},"procs":3}`
	resp, first := post(t, s, orig, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: %d %s %s", resp.StatusCode, resp.Header.Get("X-Cache"), first)
	}
	for _, variant := range []string{
		// Whitespace.
		"{ \"graph\" : {\n  \"subtasks\" : [ {\"name\": \"a\", \"cost\": 2}, {\"name\": \"b\", \"cost\": 3},\n" +
			"\t{\"name\": \"c\", \"cost\": 2, \"endToEnd\": 40} ],\n  \"arcs\": [ {\"from\": \"a\", \"to\": \"b\", \"size\": 1},\n" +
			"  {\"from\": \"b\", \"to\": \"c\", \"size\": 2} ] },\n \"procs\": 3 }\n",
		// Key order.
		`{"procs":3,"graph":{"arcs":[{"size":1,"to":"b","from":"a"},{"to":"c","size":2,"from":"b"}],` +
			`"subtasks":[{"cost":2,"name":"a"},{"cost":3,"name":"b"},{"endToEnd":40,"cost":2,"name":"c"}]}}`,
		// Key case.
		`{"GRAPH":{"Subtasks":[{"Name":"a","COST":2},{"NAME":"b","Cost":3},{"name":"c","cost":2,"EndToEnd":40}],` +
			`"Arcs":[{"From":"a","TO":"b","Size":1},{"from":"b","to":"c","SIZE":2}]},"Procs":3}`,
		// Number spelling.
		`{"graph":{"subtasks":[{"name":"a","cost":2.0},{"name":"b","cost":3e0},{"name":"c","cost":0.2e1,"endToEnd":40.000}],` +
			`"arcs":[{"from":"a","to":"b","size":1.0},{"from":"b","to":"c","size":20e-1}]},"procs":3}`,
	} {
		resp, b := post(t, s, variant, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %s: status %d %s", variant, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("variant %s: X-Cache %q, want hit", variant, got)
		}
		if !bytes.Equal(b, first) {
			t.Errorf("variant %s: body differs:\n%s\n%s", variant, b, first)
		}
	}
}

// TestCyclicGraphRefusedBeforeAdmission: an invalid graph is refused with
// a 400 at parse, holding neither a tenant token nor a queue slot.
func TestCyclicGraphRefusedBeforeAdmission(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc, Metrics: metrics.New(), Admission: AdmissionConfig{
		MaxInflight: 1, MaxQueue: 1, TenantRate: 1e-6, TenantBurst: 1,
	}})
	do := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader([]byte(body)))
		req.Header.Set("X-Tenant", "solo")
		rec := httptest.NewRecorder()
		s.handleAssign(rec, req)
		return rec
	}
	cyclic := `{"graph":{"subtasks":[{"name":"a","cost":1},{"name":"b","cost":1,"endToEnd":9}],` +
		`"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"a","size":1}]}}`

	// Hold the only compute slot: a request that reached the queue would
	// wait there, not return a 400.
	release, _, aerr := s.adm.acquireSlot(context.Background())
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i := 0; i < 3; i++ {
		rec := do(cyclic)
		if rec.Code != http.StatusBadRequest || decodeError(t, rec.Body.Bytes()).Class != ClassInvalid {
			t.Fatalf("cyclic graph: %d %s", rec.Code, rec.Body)
		}
	}
	if w := s.adm.waiting.Load(); w != 0 {
		t.Fatalf("%d requests waiting for a slot", w)
	}
	release()

	// The tenant's single token is still there for a valid request, and
	// only then spent.
	if rec := do(reqBody(0, "")); rec.Code != http.StatusOK {
		t.Fatalf("valid request after refusals: %d %s", rec.Code, rec.Body)
	}
	if rec := do(reqBody(1, "")); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second valid request: %d, want 429 (burst 1)", rec.Code)
	}
}

// parseSink keeps BenchmarkServeParse's result live.
var parseSink *parsedRequest

// BenchmarkServeParse times the request-parsing layer of /v1/assign: the
// one decode of the body into its typed wire form (decodeRequest, as the
// handler runs it), validation, the content key, and — on a miss only —
// building the graph. The other cases send the same request outside the
// scan's strict subset, so encoding/json decodes it: -escape has its last
// name \u-escaped, as Python's json.dumps writes a non-ASCII name, and
// -keycase spells "procs" as "Procs", which the scan meets only after the
// whole graph, the worst case of the fallback.
func BenchmarkServeParse(b *testing.B) {
	body := generatedBodies(b, 1, []int{4})[0]
	escaped := escapeLastName(b, body)
	keycase := bytes.Replace(body, []byte(`"procs":`), []byte(`"Procs":`), 1)
	if bytes.Equal(keycase, body) {
		b.Fatal(`no "procs" key to case-fold`)
	}
	for _, c := range []struct {
		name string
		hit  bool
		body []byte
	}{
		{"hit", true, body},
		{"miss", false, body},
		{"hit-escape", true, escaped},
		{"miss-escape", false, escaped},
		{"hit-keycase", true, keycase},
		{"miss-keycase", false, keycase},
	} {
		b.Run(c.name, func(b *testing.B) {
			orc := experiment.NewOrchestrator(1)
			defer orc.Close()
			s := New(Config{Orchestrator: orc})
			if c.hit {
				settleBody(b, s, c.body)
			}
			rd := bytes.NewReader(c.body)
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(c.body)
				var req wireRequest
				if err := decodeRequest(rd, &req); err != nil {
					b.Fatal(err)
				}
				pr, perr := s.parse(&req, TierFull)
				if perr != nil {
					b.Fatal(perr)
				}
				parseSink = pr
			}
		})
	}
}

// escapeLastName returns body with the first byte of its last name, the
// last arc's target, written as a \u escape: the same request, outside
// the scan's strict subset.
func escapeLastName(tb testing.TB, body []byte) []byte {
	tb.Helper()
	const field = `"to":"`
	i := bytes.LastIndex(body, []byte(field)) + len(field)
	if i < len(field) || body[i] == '"' {
		tb.Fatal("no arc target to escape")
	}
	out := append([]byte(nil), body[:i]...)
	out = fmt.Appendf(out, `\u%04x`, body[i])
	return append(out, body[i+1:]...)
}

// settleBody caches an answer under body's key.
func settleBody(tb testing.TB, s *Server, body []byte) {
	tb.Helper()
	req, err := decodeWire(body)
	if err != nil {
		tb.Fatal(err)
	}
	pr, perr := s.parse(req, TierFull)
	if perr != nil {
		tb.Fatal(perr)
	}
	publish(s, pr.key)
}

// TestParseHitAllocs bounds the allocations of decoding and parsing a
// cached request the way the handler does. The one-pass decode allocates
// the body's string copy and the wire slices, not one string per name;
// building the graph would multiply the count.
func TestParseHitAllocs(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	body := generatedBodies(t, 1, []int{4})[0]
	settleBody(t, s, body)
	rd := bytes.NewReader(body)
	parse := func() {
		rd.Reset(body)
		var req wireRequest
		if err := decodeRequest(rd, &req); err != nil {
			t.Fatal(err)
		}
		pr, perr := s.parse(&req, TierFull)
		if perr != nil || pr.graph != nil {
			t.Fatalf("not a hit: %v", perr)
		}
	}
	hit := testing.AllocsPerRun(50, parse)
	req, _ := decodeWire(body)
	t.Logf("hit parse: %.0f allocs (%d subtasks, %d arcs)", hit, len(req.Graph.Subtasks), len(req.Graph.Arcs))
	const limit = 25
	if hit > limit {
		t.Errorf("hit parse: %.0f allocs, limit %d", hit, limit)
	}
}

// FuzzAssignRequest: whatever the body, the real handler answers with a
// verdict or one taxonomy error, and never with a 500 or a panic.
func FuzzAssignRequest(f *testing.F) {
	for _, seed := range []string{
		reqBody(0, ""),
		reqBody(1, `, "assigner": "PURE", "policy": "LLF", "class": "interactive", "budgetMs": 50`),
		`{"graph":{"subtasks":[{"name":"a","cost":1,"pinned":7},{"name":"b","cost":1,"endToEnd":5,"release":1}],"arcs":[{"from":"a","to":"b","size":1}]},"procs":2}`,
		`{"graph":{"subtasks":[{"name":"a","cost":1},{"name":"b","cost":1,"endToEnd":9}],"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"a","size":1}]}}`,
		`{"graph":{"subtasks":[{"name":"","cost":1},{"name":"t0","cost":2,"endToEnd":9}],"arcs":[{"from":"","to":"t0","size":1}]}}`,
		`{"graph":{"subtasks":[{"name":"a","cost":0,"endToEnd":-3}],"arcs":null},"procs":1}`,
		`{"graph":{"subtasks":[{"name":"a","cost":1e300,"endToEnd":1e-300}]},"procs":512,"assigner":"EQF"}`,
		`{"graph":{"subtasks":[{"name":"a","cost":1}],"arcs":[{"from":"a","to":"zz","size":1}]}}`,
		`{"graph":null}`, `{"graph":[1]}`, `{"graph":{}}`, `{}`, `null`, `[]`, ``, `{"procs":"4"}`,
		`{"graph":{"subtasks":[{"name":"a","cost":1}]},"graph":{"arcs":[]},"procs":-1}`,
		`{"graph":{"subtasks":[{"name":"a","cost":1}]},"assigner":"NOPE"}`,
	} {
		f.Add([]byte(seed))
	}
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc, DefaultBudget: 200 * time.Millisecond, MaxBudget: 200 * time.Millisecond,
		Admission: AdmissionConfig{MaxInflight: 1, MaxQueue: 4}})
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleAssign(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		checkTaxonomy(t, rec.Code, rec.Body.Bytes())
	})
}

// publish caches an empty body under key, as a computed response would.
func publish(s *Server, key string) {
	s.cache.Do(context.Background(), key, func(sfcache.Outcome) ([]byte, error) { return []byte(`{}`), nil })
}
