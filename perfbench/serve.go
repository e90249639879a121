package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/serve"
	"deadlinedist/internal/taskgraph"
)

const (
	// poolGraphs paper-default graphs, each at every size of procsSet,
	// make the request shapes both serve workloads cycle through.
	poolGraphs = 64
	// placeholder marks, in every request template, the suffix of the
	// renamed first subtask; each request writes its own token there, so
	// its content key is unique while its computation stays the pool
	// graph's.
	placeholder = "@@@@@@@@@@@@"
	// checkEvery: on serve-miss, every checkEvery-th timed response of a
	// client is decoded and checked against the direct recomputation (all
	// set-up responses are). serve-hit checks every body byte for byte.
	checkEvery = 8
	// replayMax bounds the traced run's single-goroutine replay sample.
	replayMax = 400
)

// procsSet is the platform sizes requests ask for (the paper's 2..16).
var procsSet = [...]int{2, 4, 8, 16}

// reference and edf are the direct recomputation the checks and the replay
// use: what the server computes for a request pinned to ADAPT under the
// default EDF policy.
var (
	reference = core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}
	edf       = scheduler.Config{RespectRelease: true, Policy: scheduler.PolicyEDF}
)

// verdictOf and windowsOf read a response's verdict and subtask windows
// off a distribution and its schedule.
func verdictOf(g *taskgraph.Graph, res *core.Result, sched *scheduler.Schedule) serve.Verdict {
	missed := sched.MissedDeadlines(g, res)
	return serve.Verdict{Schedulable: missed == 0, MaxLateness: sched.MaxLateness(g, res),
		Makespan: sched.Makespan, MissedDeadlines: missed}
}

func windowsOf(g *taskgraph.Graph, res *core.Result, sched *scheduler.Schedule) []serve.SubtaskWindow {
	var ws []serve.SubtaskWindow
	for _, n := range g.NodesView() {
		if n.Kind == taskgraph.KindSubtask {
			ws = append(ws, serve.SubtaskWindow{Name: n.Name,
				Release: res.Release[n.ID], Deadline: res.Absolute[n.ID], Proc: sched.Proc[n.ID]})
		}
	}
	return ws
}

// shape is one request shape: a pool graph at one platform size.
type shape struct {
	procs    int
	template []byte // request body; placeholder marks the token slots
	offsets  []int  // placeholder offsets in template
	orig     string // first subtask's name in the pool graph
	want     expected
}

// expected is the direct recomputation of one shape: core.Distributor
// {ADAPT(1.25), CCNE} and scheduler.Scratch.Run on the decoded graph.
type expected struct {
	assigner string
	verdict  serve.Verdict
	windows  map[string]serve.SubtaskWindow // by pool-graph name
}

// body writes the request for token into buf and returns it.
func (s *shape) body(buf []byte, token string) []byte {
	buf = append(buf[:0], s.template...)
	for _, off := range s.offsets {
		copy(buf[off:], token)
	}
	return buf
}

// check compares a response body against the recomputation.
func (s *shape) check(body []byte, token string) error {
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	switch {
	case r.Key == "":
		return fmt.Errorf("response without key")
	case r.Assigner != s.want.assigner:
		return fmt.Errorf("assigner %q, want %q", r.Assigner, s.want.assigner)
	case r.Procs != s.procs:
		return fmt.Errorf("procs %d, want %d", r.Procs, s.procs)
	case r.Verdict != s.want.verdict:
		return fmt.Errorf("verdict %+v, want %+v", r.Verdict, s.want.verdict)
	case len(r.Subtasks) != len(s.want.windows):
		return fmt.Errorf("%d subtask windows, want %d", len(r.Subtasks), len(s.want.windows))
	}
	renamed := s.orig + "~" + token
	for _, w := range r.Subtasks {
		name := w.Name
		switch name {
		case renamed:
			name = s.orig
		case s.orig:
			return fmt.Errorf("subtask %q kept its pool name", name)
		}
		exp, ok := s.want.windows[name]
		exp.Name = w.Name
		if !ok || w != exp {
			return fmt.Errorf("window %+v, want %+v", w, exp)
		}
	}
	return nil
}

// buildShapes generates the graph pool from seed and derives every shape:
// its request template and its expected answer.
func buildShapes(seed uint64) ([]*shape, error) {
	graphs, err := generator.Batch(generator.Default(generator.MDET), rng.New(seed), poolGraphs)
	if err != nil {
		return nil, err
	}
	label := reference.Metric.Name() + "/" + reference.Estimator.Name()
	dsc, ssc := core.NewScratch(), scheduler.NewScratch()
	shapes := make([]*shape, 0, len(procsSet)*len(graphs))
	for _, procs := range procsSet {
		sys, err := platform.New(procs)
		if err != nil {
			return nil, err
		}
		for gi, pg := range graphs {
			// The server sees the graph through the JSON interchange, so the
			// reference runs on the decoded graph too.
			raw, err := json.Marshal(pg)
			if err != nil {
				return nil, err
			}
			g, err := taskgraph.Decode(raw)
			if err != nil {
				return nil, err
			}
			res, err := reference.DistributeScratch(g, sys, nil, dsc)
			if err != nil {
				return nil, fmt.Errorf("graph %d procs %d: %w", gi, procs, err)
			}
			sched, err := ssc.Run(g, sys, res, edf)
			if err != nil {
				return nil, fmt.Errorf("graph %d procs %d: %w", gi, procs, err)
			}
			s := &shape{procs: procs, want: expected{assigner: label, verdict: verdictOf(g, res, sched),
				windows: map[string]serve.SubtaskWindow{}}}
			for _, w := range windowsOf(g, res, sched) {
				s.want.windows[w.Name] = w
			}
			if err := s.setTemplate(raw); err != nil {
				return nil, err
			}
			shapes = append(shapes, s)
		}
	}
	return shapes, nil
}

// setTemplate renames the first subtask of the graph JSON to
// "<name>~<placeholder>" (in the subtask list and in every arc) and wraps
// it in a request pinned to ADAPT in the batch latency class, whose 30s
// objective keeps SLO burn, and so the degrade ladder, out of the run.
func (s *shape) setTemplate(raw []byte) error {
	var wire struct {
		Subtasks []map[string]json.RawMessage `json:"subtasks"`
		Arcs     []map[string]json.RawMessage `json:"arcs"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return err
	}
	if err := json.Unmarshal(wire.Subtasks[0]["name"], &s.orig); err != nil {
		return err
	}
	oldName := wire.Subtasks[0]["name"]
	newName, err := json.Marshal(s.orig + "~" + placeholder)
	if err != nil {
		return err
	}
	wire.Subtasks[0]["name"] = newName
	for _, a := range wire.Arcs {
		for _, end := range []string{"from", "to"} {
			if bytes.Equal(a[end], oldName) {
				a[end] = newName
			}
		}
	}
	graph, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	s.template, err = json.Marshal(serve.Request{Graph: graph, Procs: s.procs,
		Assigner: "ADAPT", Class: "batch", BudgetMs: 10000})
	if err != nil {
		return err
	}
	for i := 0; ; {
		j := bytes.Index(s.template[i:], []byte(placeholder))
		if j < 0 {
			break
		}
		s.offsets = append(s.offsets, i+j)
		i += j + len(placeholder)
	}
	if len(s.offsets) == 0 {
		return fmt.Errorf("request template lost its placeholder")
	}
	return nil
}

// token is a request's 12-byte tag: phase letter, client, sequence.
func token(phase byte, client, seq int) string {
	return fmt.Sprintf("%c%02d%09d", phase, client, seq)
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	id    int
	hc    *http.Client
	tr    *http.Transport
	url   string
	dials *atomic.Int64
	seq   int // next request number; never reused, so tokens stay unique
	buf   []byte
	resp  bytes.Buffer
}

func newClient(id int, url string) *client {
	c := &client{id: id, url: url, dials: new(atomic.Int64)}
	d := &net.Dialer{}
	c.tr = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.hc = &http.Client{Transport: c.tr}
	return c
}

// post sends one request and reads the whole response into c.resp.
func (c *client) post(body []byte, rid string) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// serveRig is a started server with connected clients and the request
// shapes, ready for a timed phase.
type serveRig struct {
	hit     bool
	shapes  []*shape
	hot     [][]byte // serve-hit: the verified body of every shape's hot key
	srv     *serve.Server
	clients []*client
	events  *bytes.Buffer // traced rig: the server tracer's JSONL sink, read after the tracer closes
	tracer  *obs.Tracer
	trStart time.Time
}

// setupServe generates the inputs, starts a loopback server (traced when
// asked), opens one keep-alive connection per client and warms the
// server up. Every set-up response is checked. serve-miss warms with one
// unique request per shape; serve-hit computes its hot key set — one key
// per shape — and then reads every hot key once from the cache.
func setupServe(seed uint64, hit, traced bool) (*serveRig, error) {
	shapes, err := buildShapes(seed)
	if err != nil {
		return nil, fmt.Errorf("request pool: %w", err)
	}
	rig := &serveRig{hit: hit, shapes: shapes}
	cfg := serve.Config{Workers: workers()}
	if traced {
		rig.events = &bytes.Buffer{}
		rig.trStart = time.Now()
		rig.tracer = obs.New(obs.Options{Events: rig.events})
		cfg.Trace = rig.tracer
		cfg.Metrics = metrics.New()
	}
	rig.srv = serve.New(cfg)
	if err := rig.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	url := "http://" + rig.srv.Addr() + "/v1/assign"
	for i := 0; i < workers(); i++ {
		rig.clients = append(rig.clients, newClient(i, url))
	}
	warm := func(phase byte, wantCache string, check func(c *client, si int, tok string) error) error {
		return rig.eachClient(func(c *client) error {
			for si := c.id; si < len(shapes); si += len(rig.clients) {
				tok := token(phase, 0, si)
				c.buf = shapes[si].body(c.buf, tok)
				status, xc, err := c.post(c.buf, tok)
				switch {
				case err != nil:
					return err
				case status != http.StatusOK:
					return fmt.Errorf("set-up request %s: status %d: %s", tok, status, c.resp.Bytes())
				case xc != wantCache:
					return fmt.Errorf("set-up request %s: X-Cache %q, want %q", tok, xc, wantCache)
				}
				if err := check(c, si, tok); err != nil {
					return fmt.Errorf("set-up request %s: %w", tok, err)
				}
			}
			return nil
		})
	}
	fullCheck := func(c *client, si int, tok string) error { return shapes[si].check(c.resp.Bytes(), tok) }
	if !hit {
		err = warm('w', "miss", fullCheck)
	} else {
		rig.hot = make([][]byte, len(shapes))
		err = warm('h', "miss", func(c *client, si int, tok string) error {
			rig.hot[si] = append([]byte(nil), c.resp.Bytes()...)
			return fullCheck(c, si, tok)
		})
		if err == nil {
			err = warm('h', "hit", func(c *client, si int, tok string) error {
				if !bytes.Equal(c.resp.Bytes(), rig.hot[si]) {
					return fmt.Errorf("cached body differs from the computed one")
				}
				return nil
			})
		}
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// eachClient runs fn once per client concurrently and returns the first
// error.
func (r *serveRig) eachClient(fn func(c *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close drains the server and closes the clients and the tracer.
func (r *serveRig) close() {
	for _, c := range r.clients {
		c.tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := r.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	if err := r.tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server tracer:", err)
	}
}

// sent is one timed request of a traced phase, kept for the replay.
type sent struct {
	shape int
	tok   string
	rid   string
}

// phaseOut is one timed phase's record, merged over the clients.
type phaseOut struct {
	tally
	hits, misses int64
	comps        []completion // successful requests
	sent         []sent
	stats        phaseStats
}

// merge appends another record (of the same phase or a later one).
func (o *phaseOut) merge(p phaseOut) {
	o.tally.add(p.tally)
	o.hits += p.hits
	o.misses += p.misses
	o.comps = append(o.comps, p.comps...)
	o.sent = append(o.sent, p.sent...)
	o.stats.wall += p.stats.wall
	o.stats.cpu += p.stats.cpu
	o.stats.peakHeapMB = max(o.stats.peakHeapMB, p.stats.peakHeapMB)
	o.stats.allocBytes += p.stats.allocBytes
	o.stats.gcCycles += p.stats.gcCycles
}

// phase runs the closed loop for d: every client sends its next request
// as soon as the previous response is read and checked. With a non-nil
// ref, the loop pauses about every refEvery for a host reference sample;
// the pauses count neither as phase time nor as the phase's CPU time, and
// no window spans one. It returns the record and the phase's window
// rates. st, when non-nil, receives a client span per request.
func (r *serveRig) phase(d time.Duration, st *spanStore, ref *hostRef) (phaseOut, []float64, error) {
	outs := make([]phaseOut, len(r.clients))
	dials0 := r.dials()
	var rates []float64
	var paused, refCPU time.Duration
	if ref != nil {
		paused, refCPU = ref.paused, ref.cpu
	}
	pm := startPhase()
	start := pm.start
	var active time.Duration
	for active < d {
		slice := d - active
		if ref != nil {
			slice = min(slice, refEvery)
		}
		from := make([]int, len(outs))
		for i := range outs {
			from[i] = len(outs[i].comps)
		}
		s0 := time.Now()
		err := r.eachClient(func(c *client) error {
			o := &outs[c.id]
			for time.Since(s0) < slice {
				r.request(c, o, st, start)
			}
			return nil
		})
		if err != nil {
			return phaseOut{}, nil, err
		}
		wall := time.Since(s0)
		active += wall
		var cs []completion
		for i := range outs {
			cs = append(cs, outs[i].comps[from[i]:]...)
		}
		rates = append(rates, windowRates(cs, wall)...)
		ref.sample()
	}
	var out phaseOut
	out.stats = pm.stop()
	if ref != nil {
		out.stats.wall -= ref.paused - paused
		out.stats.cpu -= ref.cpu - refCPU
	}
	for _, o := range outs {
		out.merge(o)
	}
	if n := r.dials() - dials0; n != 0 {
		out.fail(fmt.Sprintf("%d connections dialled during the timed phase", n))
	}
	return out, rates, nil
}

// request sends client c's next timed request, checks the answer and
// records it in o.
func (r *serveRig) request(c *client, o *phaseOut, st *spanStore, start time.Time) {
	want := "miss"
	if r.hit {
		want = "hit"
	}
	seq := c.seq
	c.seq++
	si := (c.id + seq*len(r.clients)) % len(r.shapes)
	s := r.shapes[si]
	rid := token('t', c.id, seq)
	tok := rid
	if r.hit {
		tok = token('h', 0, si)
	}
	c.buf = s.body(c.buf, tok)
	t0 := time.Now()
	status, xc, err := c.post(c.buf, rid)
	t1 := time.Now()
	tier := r.srv.Ladder().Tier()
	o.attempted++
	if st != nil {
		st.add("client.request", 0, rid, t0, t1)
		o.sent = append(o.sent, sent{shape: si, tok: tok, rid: rid})
	}
	switch xc {
	case "hit":
		o.hits++
	case "miss":
		o.misses++
	}
	switch {
	case err != nil:
		o.fail(fmt.Sprintf("request %s: %v", rid, err))
		return
	case status != http.StatusOK:
		o.fail(fmt.Sprintf("request %s: status %d", rid, status))
		return
	case tier != serve.TierFull:
		o.fail(fmt.Sprintf("request %s served at tier %s", rid, tier))
		return
	case xc != want:
		o.fail(fmt.Sprintf("request %s: X-Cache %q, want %q", rid, xc, want))
		return
	case r.hit && !bytes.Equal(c.resp.Bytes(), r.hot[si]):
		o.fail(fmt.Sprintf("request %s: body differs from the verified body of its key", rid))
		return
	case !r.hit && seq%checkEvery == 0:
		if err := s.check(c.resp.Bytes(), tok); err != nil {
			o.fail(fmt.Sprintf("request %s: %v", rid, err))
			return
		}
	}
	o.comps = append(o.comps, completion{at: t1.Sub(start), latMs: float64(t1.Sub(t0).Nanoseconds()) / 1e6})
}

func (r *serveRig) dials() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.dials.Load()
	}
	return n
}

// guards reads the server's own counters after the timed phases and turns
// a broken run-validity guard into a failure of res: the degrade ladder
// must not have moved, and nothing may have been shed or retried.
func (r *serveRig) guards(res *result) (tierChanges, shed, retries float64, err error) {
	resp, err := http.Get("http://" + r.srv.Addr() + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "dlserve_shed_total"):
			shed += v
		case name == "dlserve_retries_total":
			retries += v
		}
	}
	tierChanges = float64(r.srv.Ladder().Transitions())
	if tierChanges != 0 {
		res.fail(fmt.Sprintf("degrade ladder moved %v times", tierChanges))
	}
	if shed != 0 || retries != 0 {
		res.fail(fmt.Sprintf("server shed %v and retried %v requests", shed, retries))
	}
	return tierChanges, shed, retries, sc.Err()
}

func runServe(o options, ref *hostRef, hit bool) (*result, error) {
	rig, setupS, setups, err := timedSetup(ref,
		func() (*serveRig, error) { return setupServe(o.seed, hit, false) },
		func(r *serveRig) { r.close() })
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	defer rig.close()
	res := newResult()
	res.diag["shapes"] = len(rig.shapes)
	res.diag["clients"] = len(rig.clients)
	res.diag["setupSeconds"] = setups
	if o.trace {
		return traceServe(o, rig, res)
	}
	p, rates, err := rig.phase(o.seconds, nil, ref)
	if err != nil {
		return nil, err
	}
	res.add(p.tally)
	if _, _, _, err := rig.guards(res); err != nil {
		return nil, err
	}
	ops := float64(len(p.comps))
	lat := make([]float64, len(p.comps))
	for i, c := range p.comps {
		lat[i] = c.latMs
	}
	sort.Float64s(lat)
	speed := ref.speed()
	res.setRate("ops_per_s", median(rates), speed)
	res.setTime("p50_ms", quantile(lat, 0.50), speed)
	res.setTime("p90_ms", quantile(lat, 0.90), speed)
	res.setTime("cpu_us_per_op", float64(p.stats.cpu.Microseconds())/ops, ref.cpuSpeed())
	res.setTime("setup_s", setupS, speed)
	res.set("peak_heap_mb", p.stats.peakHeapMB)
	res.diag["hostSpeed"] = speed
	res.diag["hostCPUSpeed"] = ref.cpuSpeed()
	res.diag["refSeconds"] = ref.walls
	res.diag["refCPUSeconds"] = ref.cpus
	res.diag["windows"] = len(rates)
	res.diag["latencySamples"] = len(lat)
	res.diag["wholePhaseOpsPerS"] = ops / p.stats.wall.Seconds()
	res.diag["p99_ms"] = quantile(lat, 0.99)
	res.diag["cacheHits"], res.diag["cacheMisses"] = p.hits, p.misses
	return res, nil
}

// traceRounds is how many untraced/traced phase pairs a traced serve run
// alternates through, so host drift hits both sides of the overhead
// comparison alike.
const traceRounds = 4

// traceServe alternates timed phases between the untraced rig and a
// second rig with the server's tracer and recorder attached (plus the
// benchmark's client spans), replays a sample of the traced requests
// through the layers' public functions, and derives the per-layer
// metrics.
func traceServe(o options, rig *serveRig, res *result) (*result, error) {
	trig, err := setupServe(o.seed, rig.hit, true)
	if err != nil {
		return nil, fmt.Errorf("traced serve set-up: %w", err)
	}
	defer trig.close()
	st := newSpanStore()
	slice := o.seconds / (2 * traceRounds)
	var plain, traced phaseOut
	var plainRates, tracedRates []float64
	for i := 0; i < traceRounds; i++ {
		p, pr, err := rig.phase(slice, nil, nil)
		if err != nil {
			return nil, err
		}
		t, tr, err := trig.phase(slice, st, nil)
		if err != nil {
			return nil, err
		}
		plain.merge(p)
		traced.merge(t)
		plainRates = append(plainRates, pr...)
		tracedRates = append(tracedRates, tr...)
	}
	res.add(plain.tally)
	res.add(traced.tally)
	tc1, shed1, retries1, err := rig.guards(res)
	if err != nil {
		return nil, err
	}
	tc2, shed2, retries2, err := trig.guards(res)
	if err != nil {
		return nil, err
	}
	// Both servers close before the replay (the traced one to flush its
	// tracer), and the trace buffer is dropped, so the replay's collector
	// marks a heap no larger than a serving process's.
	rig.close()
	trig.close()
	if err := st.addServerEvents(trig.events.Bytes(), trig.trStart); err != nil {
		return nil, fmt.Errorf("server trace: %w", err)
	}
	trig.events = nil
	runtime.GC()
	if err := replay(st, trig.shapes, traced.sent, rig.hit); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	lt := st.layerTimes()

	hits, misses := float64(plain.hits+traced.hits), float64(plain.misses+traced.misses)
	reqUs := lt["serve.request"].MeanUs
	parseUs := lt["replay.request_decode"].MeanUs + lt["replay.taskgraph_decode"].MeanUs + lt["replay.key"].MeanUs
	nreq := float64(max(1, lt["serve.request"].Count))
	admitUs := (lt["serve.quota"].MeanUs*float64(lt["serve.quota"].Count) +
		lt["serve.queue"].MeanUs*float64(lt["serve.queue"].Count)) / nreq
	res.set("serve.request_us", reqUs)
	res.set("serve.request_decode_us", lt["replay.request_decode"].MeanUs)
	res.set("taskgraph.decode_us", lt["replay.taskgraph_decode"].MeanUs)
	res.set("serve.key_us", lt["replay.key"].MeanUs)
	if reqUs > 0 {
		res.set("serve.parse_share", parseUs/reqUs)
	}
	res.set("serve.cache_hit_ratio", hits/max(1, hits+misses))
	res.set("serve.cache_hits", hits)
	res.set("serve.cache_misses", misses)
	res.set("serve.cache_wait_us", lt["serve.cache-wait"].MeanUs)
	res.set("serve.admission_us", admitUs)
	res.set("serve.write_us", lt["serve.write"].MeanUs)
	res.set("http.client_overhead_us", lt["client.request"].SelfUs)
	if !rig.hit {
		attempt := lt["serve.attempt"]
		distUs, runUs, encUs := lt["replay.distribute"].MeanUs, lt["replay.schedule"].MeanUs, lt["replay.encode"].MeanUs
		res.set("serve.attempt_us", attempt.MeanUs)
		res.set("serve.attempts_per_miss", float64(attempt.Count)/float64(max(1, traced.misses)))
		res.set("core.distribute_us", distUs)
		res.set("scheduler.run_us", runUs)
		res.set("serve.encode_us", encUs)
		res.set("serve.pool_wait_us", attempt.MeanUs-distUs-runUs-encUs)
	}
	res.set("serve.tier_changes", tc1+tc2)
	res.set("serve.shed", shed1+shed2)
	res.set("serve.retries", retries1+retries2)
	addCommonLayers(res, plain.stats, float64(len(plain.comps)), median(plainRates), median(tracedRates))
	res.diag["selfTimes"] = lt
	path, err := writeSpans(o, st.all())
	if err != nil {
		return nil, err
	}
	res.diag["spans"] = path
	return res, nil
}

// replay re-runs a sample of the traced requests on one goroutine through
// the public functions of each layer the request path crosses, timing
// each call: request JSON decode, taskgraph.Decode, the content key
// (canonical json.Marshal plus sha256) and — on serve-miss, where answers
// are computed — distribution, the schedulability run and the response
// encode.
func replay(st *spanStore, shapes []*shape, reqs []sent, hit bool) error {
	step := max(1, len(reqs)/replayMax)
	dsc, ssc := core.NewScratch(), scheduler.NewScratch()
	var buf []byte
	type lap struct {
		name string
		a, b time.Time
	}
	for i := 0; i < len(reqs); i += step {
		q := reqs[i]
		s := shapes[q.shape]
		buf = s.body(buf, q.tok)
		var laps []lap
		timed := func(name string, fn func() error) error {
			a := time.Now()
			err := fn()
			laps = append(laps, lap{name, a, time.Now()})
			return err
		}
		t0 := time.Now()
		var req serve.Request
		var g *taskgraph.Graph
		err := timed("replay.request_decode", func() error { return json.Unmarshal(buf, &req) })
		if err == nil {
			err = timed("replay.taskgraph_decode", func() (err error) { g, err = taskgraph.Decode(req.Graph); return err })
		}
		if err == nil {
			err = timed("replay.key", func() error {
				canon, err := json.Marshal(g)
				h := sha256.New()
				h.Write(canon)
				fmt.Fprintf(h, "|procs=%d|assigner=%s|policy=%s", req.Procs, req.Assigner, "EDF")
				_ = hex.EncodeToString(h.Sum(nil))
				return err
			})
		}
		if err == nil && !hit {
			err = replayCompute(g, req.Procs, s.want.assigner, dsc, ssc, timed)
		}
		if err != nil {
			return fmt.Errorf("request %s: %w", q.rid, err)
		}
		root := st.add("replay.request", 0, q.rid, t0, time.Now())
		for _, l := range laps {
			st.add(l.name, root, q.rid, l.a, l.b)
		}
	}
	return nil
}

// replayCompute times one computed answer: distribution, the
// schedulability run, and the encode of the response they make.
func replayCompute(g *taskgraph.Graph, procs int, label string, dsc *core.Scratch,
	ssc *scheduler.Scratch, timed func(string, func() error) error) error {
	sys, err := platform.New(procs)
	if err != nil {
		return err
	}
	var res *core.Result
	var sched *scheduler.Schedule
	if err := timed("replay.distribute", func() (err error) {
		res, err = reference.DistributeScratch(g, sys, nil, dsc)
		return err
	}); err != nil {
		return err
	}
	if err := timed("replay.schedule", func() (err error) {
		sched, err = ssc.Run(g, sys, res, edf)
		return err
	}); err != nil {
		return err
	}
	resp := serve.Response{Key: strings.Repeat("0", 64), Assigner: label, Procs: procs,
		Verdict: verdictOf(g, res, sched), Subtasks: windowsOf(g, res, sched)}
	return timed("replay.encode", func() error { _, err := json.Marshal(&resp); return err })
}

// addCommonLayers records the runtime and tracing-overhead layers every
// workload reports.
func addCommonLayers(res *result, ps phaseStats, ops, untracedOps, tracedOps float64) {
	res.set("runtime.alloc_bytes_per_op", float64(ps.allocBytes)/max(1, ops))
	res.set("runtime.gc_cycles", float64(ps.gcCycles))
	res.set("trace.untraced_ops_per_s", untracedOps)
	res.set("trace.traced_ops_per_s", tracedOps)
	if untracedOps > 0 {
		res.set("trace.overhead_share", 1-tracedOps/untracedOps)
	}
}
