package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"deadlinedist/internal/core"
	"deadlinedist/internal/experiment"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

// goldenRequest names its subtasks with every class of byte json.Marshal
// escapes in a response: the HTML-sensitive '<', '>' and '&', a quote, a
// backslash, a control byte, U+2028, and non-ASCII text, which it leaves
// as is.
const goldenRequest = `{"graph":{"subtasks":[
	{"name":"a<b>","cost":2,"release":0.5},
	{"name":"x&y","cost":3.25},
	{"name":"q\"u\\o","cost":1e-7},
	{"name":"l` + "\u2028" + `s\t","cost":4},
	{"name":"été","cost":2,"endToEnd":40}],
  "arcs":[{"from":"a<b>","to":"x&y","size":1},{"from":"a<b>","to":"q\"u\\o","size":2},
	{"from":"x&y","to":"l` + "\u2028" + `s\t","size":0.1},{"from":"q\"u\\o","to":"été","size":3},
	{"from":"l` + "\u2028" + `s\t","to":"été","size":1}]},"procs":3,"assigner":"ADAPT"}`

// TestResponseGolden pins a response body byte for byte: the committed
// fixture was rendered by json.Marshal, so the hand-written encoder must
// reproduce its field order, float forms and escapes exactly. Regenerate
// with UPDATE_GOLDEN=1 only for an intended change of the wire format.
func TestResponseGolden(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	rec := httptest.NewRecorder()
	s.handleAssign(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(goldenRequest)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	got := rec.Body.Bytes()
	path := filepath.Join("testdata", "response_golden.json")
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// marshalResponse is the encoder renderResponse replaced, kept as its
// reference: the Response built field by field, the windows sorted by
// name, and json.Marshal by reflection.
func marshalResponse(pr *parsedRequest, res *core.Result, sched *scheduler.Schedule) ([]byte, error) {
	resp := Response{
		Key:      pr.key,
		Assigner: pr.assigner.Label(),
		Procs:    pr.procs,
		Verdict: Verdict{
			MaxLateness:     sched.MaxLateness(pr.graph, res),
			Makespan:        sched.Makespan,
			MissedDeadlines: sched.MissedDeadlines(pr.graph, res),
		},
	}
	resp.Verdict.Schedulable = resp.Verdict.MissedDeadlines == 0
	for _, n := range pr.graph.NodesView() {
		if n.Kind != taskgraph.KindSubtask {
			continue
		}
		resp.Subtasks = append(resp.Subtasks, SubtaskWindow{
			Name:     n.Name,
			Release:  res.Release[n.ID],
			Deadline: res.Absolute[n.ID],
			Proc:     sched.Proc[n.ID],
		})
	}
	sort.Slice(resp.Subtasks, func(i, j int) bool { return resp.Subtasks[i].Name < resp.Subtasks[j].Name })
	return json.Marshal(&resp)
}

// sameRender requires renderResponse to write marshalResponse's bytes, or
// to fail with its error text.
func sameRender(t *testing.T, pr *parsedRequest, res *core.Result, sched *scheduler.Schedule) {
	t.Helper()
	got, gerr := renderResponse(pr, res, sched)
	want, werr := marshalResponse(pr, res, sched)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("errors differ: got %v, json.Marshal %v", gerr, werr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("body differs from json.Marshal:\n got %s\nwant %s", got, want)
	case cap(got) != len(got):
		t.Fatalf("body has %d bytes of slack capacity", cap(got)-len(got))
	}
}

// computed parses body and computes its verdict the way an attempt does.
func computed(tb testing.TB, s *Server, body []byte) (*parsedRequest, *core.Result, *scheduler.Schedule) {
	tb.Helper()
	req, err := decodeWire(body)
	if err != nil {
		tb.Fatal(err)
	}
	pr, perr := s.parse(req, TierFull)
	if perr != nil {
		tb.Fatal(perr)
	}
	res, err := pr.assigner.Assign(context.Background(), pr.graph, pr.sys, nil, core.NewScratch())
	if err != nil {
		tb.Fatal(err)
	}
	sched, err := scheduler.Run(pr.graph, pr.sys, res, scheduler.Config{RespectRelease: true, Policy: pr.policy})
	if err != nil {
		tb.Fatal(err)
	}
	return pr, res, sched
}

// TestRenderMatchesMarshal checks the encoder against json.Marshal on
// paper-default graphs of every scenario at four platform sizes, under a
// slicing metric and a baseline, and with NaN and infinities placed in
// each float field json.Marshal would reach first.
func TestRenderMatchesMarshal(t *testing.T) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	n := 0
	for _, body := range generatedBodies(t, 8, []int{2, 4, 8, 16}) {
		for _, asg := range []string{"ADAPT", "EQF"} {
			body := bytes.Replace(body, []byte(`"assigner":"ADAPT"`), []byte(`"assigner":"`+asg+`"`), 1)
			pr, res, sched := computed(t, s, body)
			sameRender(t, pr, res, sched)
			n++
		}
	}
	if n != 3*8*4*2 {
		t.Fatalf("rendered %d bodies", n)
	}

	pr, res, sched := computed(t, s, generatedBodies(t, 1, []int{4})[0])
	last := pr.graph.NumSubtasks() - 1
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, poke := range []func(*core.Result, *scheduler.Schedule){
			func(_ *core.Result, s *scheduler.Schedule) { s.Makespan = bad },
			func(_ *core.Result, s *scheduler.Schedule) { s.Finish[last] = bad },
			func(r *core.Result, _ *scheduler.Schedule) { r.Release[last] = bad },
			func(r *core.Result, _ *scheduler.Schedule) { r.Absolute[0] = bad },
			func(r *core.Result, s *scheduler.Schedule) { r.Release[last], s.Makespan = bad, -bad },
		} {
			r := &core.Result{Release: slices.Clone(res.Release), Absolute: slices.Clone(res.Absolute)}
			sc := &scheduler.Schedule{Finish: slices.Clone(sched.Finish), Proc: sched.Proc, Makespan: sched.Makespan}
			poke(r, sc)
			sameRender(t, pr, r, sc)
		}
	}
}

// TestRenderResponseAllocs bounds rendering at three allocations: the
// assigner's label, the body, and the pool's occasional refill.
func TestRenderResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	pr, res, sched := computed(t, s, generatedBodies(t, 1, []int{4})[0])
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := renderResponse(pr, res, sched); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("rendering a %d-subtask response: %.1f allocs", pr.graph.NumSubtasks(), allocs)
	if allocs > 3 {
		t.Errorf("rendering a %d-subtask response: %.1f allocs, want at most 3", pr.graph.NumSubtasks(), allocs)
	}
}

// FuzzRenderResponse fuzzes the subtask names, the key and every float of
// a two-subtask response against json.Marshal.
func FuzzRenderResponse(f *testing.F) {
	f.Add("a<b>", "x&y", "k", 0.5, 8.9, 3.0, 40.0, 33.5)
	f.Add("", "t1", "\u2028", 1e-7, 1e21, -0.0, 1e-6, 123456789.0)
	f.Add("é\xff", "\"\\\t", "\x00", math.NaN(), 1.0, math.Inf(1), 2.0, math.Inf(-1))
	f.Add("z", "a", "", 5e-324, 1.7976931348623157e308, 1e20, 1e-300, 0.0)
	sys, err := platform.New(2)
	if err != nil {
		f.Fatal(err)
	}
	asg, err := assignerFor("ADAPT")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, key string, r0, d0, r1, d1, makespan float64) {
		w := taskgraph.Wire{
			Subtasks: []taskgraph.WireSubtask{{Name: a, Cost: 1}, {Name: b, Cost: 1, EndToEnd: 10}},
			Arcs:     []taskgraph.WireArc{{From: a, To: b, Size: 1}},
		}
		g, err := w.Build()
		if err != nil {
			return
		}
		n := g.NumNodes()
		res := &core.Result{Release: make([]float64, n), Absolute: make([]float64, n)}
		sched := &scheduler.Schedule{Finish: make([]float64, n), Proc: make([]int, n), Makespan: makespan}
		res.Release[0], res.Absolute[0], res.Release[1], res.Absolute[1] = r0, d0, r1, d1
		sched.Finish[0], sched.Finish[1], sched.Proc[1] = d1, makespan, 1
		sameRender(t, &parsedRequest{graph: g, key: key, assigner: asg, sys: sys, procs: sys.NumProcs()}, res, sched)
	})
}

// BenchmarkRenderResponse times the response encoder on a paper-default
// graph against the json.Marshal path it replaced.
func BenchmarkRenderResponse(b *testing.B) {
	orc := experiment.NewOrchestrator(1)
	defer orc.Close()
	s := New(Config{Orchestrator: orc})
	pr, res, sched := computed(b, s, generatedBodies(b, 1, []int{4})[0])
	for _, c := range []struct {
		name   string
		render func(*parsedRequest, *core.Result, *scheduler.Schedule) ([]byte, error)
	}{{"append", renderResponse}, {"json.Marshal", marshalResponse}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.render(pr, res, sched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
