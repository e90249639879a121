package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"deadlinedist/internal/obs"
)

// span is one timed interval of a traced run. Spans of one request (or
// one sweep pass) share Req; Parent is the causing span's ID (0 = root).
// Times are nanoseconds since the run's trace epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanStore keeps a traced run's spans in memory until the run ends.
type spanStore struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{epoch: time.Now()} }

// add records one finished span and returns its ID.
func (s *spanStore) add(name string, parent int, req string, start, end time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(s.epoch).Nanoseconds(),
		End:   end.Sub(s.epoch).Nanoseconds(),
	})
	return id
}

// addServerEvents converts the serving layer's own tracer events (JSON
// lines from obs.Tracer, whose clock started at trStart) into spans: each
// "request" span becomes a child of the client span carrying the same
// request id, and each "rstage" span a child of its request span. Events
// of requests without a client span (set-up traffic) are dropped.
func (s *spanStore) addServerEvents(events []byte, trStart time.Time) error {
	off := trStart.Sub(s.epoch).Nanoseconds()
	var reqs, stages []obs.Event
	sc := bufio.NewScanner(bytes.NewReader(events))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		switch ev.Kind {
		case "request":
			reqs = append(reqs, ev)
		case "rstage":
			stages = append(stages, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	clientOf := map[string]int{}
	for _, sp := range s.spans {
		if sp.Name == "client.request" {
			clientOf[sp.Req] = sp.ID
		}
	}
	reqOf := map[string]int{}
	for _, ev := range reqs {
		if clientOf[ev.Req] == 0 {
			continue
		}
		id := len(s.spans) + 1
		s.spans = append(s.spans, span{ID: id, Parent: clientOf[ev.Req], Name: "serve.request",
			Req: ev.Req, Start: off + ev.TS, End: off + ev.TS + ev.Dur})
		reqOf[ev.Req] = id
	}
	for _, ev := range stages {
		if reqOf[ev.Req] == 0 {
			continue
		}
		id := len(s.spans) + 1
		s.spans = append(s.spans, span{ID: id, Parent: reqOf[ev.Req], Name: "serve." + ev.Stage,
			Req: ev.Req, Start: off + ev.TS, End: off + ev.TS + ev.Dur})
	}
	return nil
}

// layerTime is one span name's aggregate: how many spans, their mean
// duration and their mean self time (duration minus the part of the
// interval that child spans cover), in microseconds.
type layerTime struct {
	Count  int     `json:"count"`
	MeanUs float64 `json:"meanUs"`
	SelfUs float64 `json:"selfUs"`
}

// layerTimes aggregates every span name's duration and self time.
func (s *spanStore) layerTimes() map[string]layerTime {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make(map[int][]span)
	for _, sp := range s.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	type acc struct {
		n         int
		dur, self float64
	}
	sums := map[string]*acc{}
	for _, sp := range s.spans {
		a := sums[sp.Name]
		if a == nil {
			a = &acc{}
			sums[sp.Name] = a
		}
		d := float64(sp.End - sp.Start)
		a.n++
		a.dur += d
		a.self += d - float64(covered(sp, children[sp.ID]))
	}
	out := make(map[string]layerTime, len(sums))
	for name, a := range sums {
		out[name] = layerTime{Count: a.n, MeanUs: a.dur / float64(a.n) / 1e3, SelfUs: a.self / float64(a.n) / 1e3}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// all returns a copy of the stored spans.
func (s *spanStore) all() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.spans...)
}
