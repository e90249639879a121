package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/taskgraph"
)

// plainGraph is a graph in the scanner's strict subset.
const plainGraph = `{"subtasks":[{"name":"a","cost":2},{"name":"b","cost":3},{"name":"c","cost":2,"endToEnd":40}],` +
	`"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"c","size":2}]}`

// TestFallbackBodiesMatchParent pins the handler's status and body for
// requests outside the strict subset, which encoding/json decodes. An
// error body is the literal the handler wrote before the one-pass decode
// existed; a success must equal the body of an equivalent request in the
// subset.
func TestFallbackBodiesMatchParent(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc, DefaultBudget: 5 * time.Second, MaxBudget: 5 * time.Second})
	do := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleAssign(rec, req)
		return rec
	}
	invalid := func(msg string) string {
		return `{"error":{"class":"invalid","message":` + msg + `,"retryable":false}}` + "\n"
	}
	plain := `{"graph":` + plainGraph + `,"procs":3}`
	huge := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct {
		name, body string
		same       string // the body of an equivalent request in the subset
		errBody    string // or the literal 400 body
	}{
		{name: "case-folded keys", same: plain,
			body: `{"GRAPH":{"Subtasks":[{"Name":"a","COST":2},{"NAME":"b","Cost":3},{"name":"c","cost":2,"EndToEnd":40}],` +
				`"Arcs":[{"From":"a","TO":"b","Size":1},{"from":"b","to":"c","SIZE":2}]},"Procs":3}`},
		{name: "duplicate scalar key", same: plain, body: `{"procs":7,"graph":` + plainGraph + `,"procs":3}`},
		{name: "duplicate graph key merges", same: plain,
			body: `{"graph":{"subtasks":[{"name":"a","cost":2},{"name":"b","cost":3},{"name":"c","cost":2,"endToEnd":40}]},` +
				`"procs":3,"graph":{"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"c","size":2}]}}`},
		{name: "unknown keys", same: plain, body: `{"graph":` + plainGraph + `,"procs":3,"extra":[1,{"x":null}]}`},
		{name: "null scalar", same: plain, body: `{"graph":` + plainGraph + `,"procs":3,"assigner":null}`},
		{name: "null graph", body: `{"graph":null,"procs":3}`,
			errBody: invalid(`"decode task graph: task graph has no subtasks"`)},
		{name: "escapes", same: plain, body: strings.Replace(plain, `"name":"a"`, `"name":"\u0061"`, 1)},
		{name: "leading whitespace", same: plain, body: " \n\t\r" + plain},
		{name: "trailing garbage", same: plain, body: plain + `}{"procs":`},
		{name: "backslash after the value", same: plain, body: plain + ` \`},
		{name: "fraction into int", body: `{"graph":` + plainGraph + `,"procs":4.0}`,
			errBody: invalid(`"decode request: json: cannot unmarshal number 4.0 into Go struct field wireRequest.Request.procs of type int"`)},
		{name: "exponent into int", body: `{"graph":` + plainGraph + `,"budgetMs":1e2}`,
			errBody: invalid(`"decode request: json: cannot unmarshal number 1e2 into Go struct field wireRequest.Request.budgetMs of type int"`)},
		{name: "int overflow", body: `{"graph":` + plainGraph + `,"procs":9223372036854775808}`,
			errBody: invalid(`"decode request: json: cannot unmarshal number 9223372036854775808 into Go struct field wireRequest.Request.procs of type int"`)},
		{name: "float overflow", body: strings.Replace(plain, `"cost":3`, `"cost":1e400`, 1),
			errBody: invalid(`"decode request: json: cannot unmarshal number 1e400 into Go struct field WireSubtask.graph.subtasks.cost of type float64"`)},
		{name: "invalid UTF-8", same: strings.ReplaceAll(plain, `"b"`, "\"b�\""),
			body: strings.ReplaceAll(plain, `"b"`, "\"b\xff\"")},
		{name: "truncated", body: plain[:40],
			errBody: invalid(`"decode request: unexpected EOF"`)},
		{name: "empty", body: ``, errBody: invalid(`"decode request: EOF"`)},
		{name: "syntax error", body: `{"graph":}`,
			errBody: invalid(`"decode request: invalid character '}' looking for beginning of value"`)},
		{name: "not an object", body: `[]`,
			errBody: invalid(`"decode request: json: cannot unmarshal array into Go value of type serve.wireRequest"`)},
		{name: "over 8 MiB", body: `{"graph":` + plainGraph + `,"pad":"` + huge + `"}`,
			errBody: invalid(`"decode request: http: request body too large"`)},
		{name: "over 8 MiB after the value", same: plain, body: plain + huge},
	} {
		rec := do(tc.body)
		want, wantStatus := tc.errBody, http.StatusBadRequest
		if tc.same != "" {
			ref := do(tc.same)
			want, wantStatus = ref.Body.String(), ref.Code
			if wantStatus != http.StatusOK {
				t.Fatalf("%s: reference request: %d %s", tc.name, ref.Code, ref.Body)
			}
		}
		if rec.Code != wantStatus || rec.Body.String() != want {
			t.Errorf("%s: %d %q\nwant %d %q", tc.name, rec.Code, rec.Body, wantStatus, want)
		}
	}
}

// TestScanRequestSubset pins which bodies the strict scan takes.
func TestScanRequestSubset(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"graph":` + plainGraph + `,"procs":3}`, true},
		{` {"procs":3,"assigner":"PURE","policy":"LLF","budgetMs":50,"tenant":"t","class":"batch","graph":{}} trailing`, true},
		{`{}`, true},
		{`{"procs":3,"procs":3}`, false},
		{`{"Procs":3}`, false},
		{`{"graph":null}`, false},
		{`{"procs":3.0}`, false},
		{`{"tenant":"t\u0041"}`, false},
		{`{"procs":3`, false},
		{`[]`, false},
		{``, false},
	} {
		var req wireRequest
		if got := scanRequest(taskgraph.NewScanner([]byte(tc.body)), &req, nil); got != tc.fast {
			t.Errorf("%q: scanned %v, want %v", tc.body, got, tc.fast)
		}
	}
}

// TestPutBufferCap: buffers up to the cap go back to the pool, larger
// ones are dropped. A sync.Pool may drop any Put (under the race
// detector it drops some on purpose), so a buffer at the cap only has to
// come back once in a number of tries; one over the cap never may.
func TestPutBufferCap(t *testing.T) {
	returned := func(b []byte) bool {
		var pool sync.Pool
		for range 20 {
			putBuffer(&pool, &b)
			if got, _ := pool.Get().(*[]byte); got == &b {
				return true
			}
		}
		return false
	}
	if !returned(make([]byte, 0, maxPooledBuffer)) {
		t.Errorf("buffer at the cap was not pooled")
	}
	if returned(make([]byte, 0, maxPooledBuffer+1)) {
		t.Errorf("buffer over the cap was pooled")
	}
}

// FuzzDecodeRequest is the differential property of the one-pass decode:
// whenever the strict scan accepts a body, encoding/json decodes the same
// request from it without error; and whatever the body, decodeRequest
// returns encoding/json's request and error. Each body is decoded through
// a scratch that has just decoded a longer request, as a pooled scratch
// is reused, so a list entry or a byte the longer body left behind would
// show in the result.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":` + plainGraph + `,"procs":3}`,
		`{"graph":{"subtasks":[{"name":"a","cost":1,"pinned":0,"release":1e-7,"endToEnd":-0}],"arcs":[]},"budgetMs":50,"tenant":"é","class":"batch","policy":"LLF","assigner":"PURE"}`,
		`{"graph":{"subtasks":[],"arcs":null}} {}`,
		`{"Graph":{},"procs":1,"procs":2}`,
		`{"graph":{"subtasks":[{"name":"a","cost":4.0}]},"procs":4.0}`,
		`{"procs":1e400}`, `{"procs":-0}`, `[1]`, ``, ` `,
	} {
		f.Add([]byte(seed))
	}
	// Every subtask of the longer request is pinned and has a release and
	// an end-to-end deadline, so a field left over in a reused entry is
	// one encoding/json does not set.
	long := []byte(`{"graph":{"subtasks":[` +
		strings.Repeat(`{"name":"longer-name","cost":7,"release":1,"endToEnd":99,"pinned":3},`, 40) +
		`{"name":"z","cost":1}],"arcs":[` + strings.Repeat(`{"from":"longer-from","to":"longer-to","size":5},`, 60) +
		`{"from":"z","to":"z","size":1}]},"procs":9,"tenant":"longer-tenant"}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref wireRequest
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)

		var fast wireRequest
		if scanRequest(taskgraph.NewScanner(body), &fast, nil) {
			if refErr != nil {
				t.Fatalf("%q: scan accepted, encoding/json: %v", body, refErr)
			}
			sameRequest(t, body, &fast, &ref)
		}

		var sc requestScratch
		var first wireRequest
		if err := decodeRequest(bytes.NewReader(long), &first, &sc); err != nil || len(first.Graph.Subtasks) != 41 {
			t.Fatalf("longer request: %v", err)
		}
		var got wireRequest
		err := decodeRequest(bytes.NewReader(body), &got, &sc)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%q: decode error %v, encoding/json %v", body, err, refErr)
		}
		if err == nil {
			sameRequest(t, body, &got, &ref)
		}
	})
}

// sameRequest fails t unless a and b are equal requests whose graphs have
// the same canonical bytes (DeepEqual alone does not tell -0 from 0).
func sameRequest(t *testing.T, body []byte, a, b *wireRequest) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", body, a, b)
	}
	ca, erra := a.Graph.AppendCanonical(nil)
	cb, errb := b.Graph.AppendCanonical(nil)
	if !bytes.Equal(ca, cb) || (erra == nil) != (errb == nil) {
		t.Fatalf("%q: canonical graph %s (%v), encoding/json %s (%v)", body, ca, erra, cb, errb)
	}
}
