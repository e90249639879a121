package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"deadlinedist/internal/metrics"
)

// Server is the live ops endpoint of a running sweep (dlexp -http):
//
//	/metrics   Prometheus text exposition of the metrics.Recorder snapshot
//	/progress  JSON: units done/total per table, retry/failure counts, ETA
//	/healthz   liveness probe ("ok" while the process can serve at all)
//	/readyz    readiness probe (200 only while started ∧ not draining)
//	/debug/pprof/  the standard profiling handlers, so -http composes
//	               with (or replaces) the -pprof server
//
// The listener is bound eagerly so a bad address fails at startup, like
// the -pprof server. rec and prog may be nil — endpoints then report
// empty snapshots.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	rec   *metrics.Recorder
	prog  *Progress
	ready *Readiness
}

// ProgressReport is the /progress JSON document: unit completion, the
// fault-tolerance and journal counters, the histogram-derived per-stage
// latency quantiles, and the ETA estimate.
type ProgressReport struct {
	ProgressSnapshot
	ETASeconds     float64 `json:"etaSeconds"`
	Retries        int64   `json:"retries"`
	Panics         int64   `json:"panics"`
	Timeouts       int64   `json:"timeouts"`
	FaultsInjected int64   `json:"faultsInjected"`

	JournalReplayed int64 `json:"journalReplayed"`
	JournalComputed int64 `json:"journalComputed"`

	Stages []StageLatency `json:"stages,omitempty"`
}

// StageLatency is one stage's latency summary in the /progress document.
type StageLatency struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50Seconds"`
	P95   float64 `json:"p95Seconds"`
	P99   float64 `json:"p99Seconds"`
}

// Serve binds addr and starts the ops endpoint. ready drives /readyz:
// daemons and drain-aware CLIs pass a Readiness they flip on startup
// completion and on SIGTERM. With a nil ready, /readyz always answers
// ready: a batch CLI has no traffic to steer away, so the probe degrades to
// a second liveness check.
func Serve(addr string, rec *metrics.Recorder, prog *Progress, ready *Readiness) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops listener: %w", err)
	}
	s := &Server{ln: ln, rec: rec, prog: prog, ready: ready}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // server dies with the run
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down. Safe on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.ready == nil {
		fmt.Fprintln(w, "ready")
		return
	}
	if ok, reason := s.ready.Ready(); !ok {
		http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.rec.Snapshot(), s.prog.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Report(s.rec, s.prog)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Report assembles the /progress document from the two live sources. Both
// may be nil.
func Report(rec *metrics.Recorder, prog *Progress) ProgressReport {
	snap := rec.Snapshot()
	ps := prog.Snapshot()
	rep := ProgressReport{
		ProgressSnapshot: ps,
		ETASeconds:       ps.ETASeconds(snap),
		Retries:          snap.UnitRetries,
		Panics:           snap.UnitPanics,
		Timeouts:         snap.UnitTimeouts,
		FaultsInjected:   snap.FaultsInjected,
		JournalReplayed:  snap.JournalReplays,
		JournalComputed:  snap.JournalComputes,
	}
	for _, st := range snap.Stages {
		if st.Count == 0 {
			continue
		}
		rep.Stages = append(rep.Stages, StageLatency{
			Stage: st.Stage,
			Count: st.Count,
			P50:   st.P50().Seconds(),
			P95:   st.P95().Seconds(),
			P99:   st.P99().Seconds(),
		})
	}
	return rep
}
