package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// chromeWriter streams a Chrome trace-event JSON array (the format of
// chrome://tracing and https://ui.perfetto.dev). It is the one writer of
// that format: the tracer renders Events through it — complete ("X")
// slices for spans, instant ("I") events for marks, metadata ("M") rows
// named lazily as they first appear — and WriteChrome streams a prepared
// event list (dlsim's schedule export). The sweep renders as one process
// with one thread row per pool worker, so a whole dlexp run reads like a
// CPU timeline: unit spans on top, the stage spans they decompose into
// nested beneath.
type chromeWriter struct {
	w       *bufio.Writer
	wrote   bool         // at least one event written (controls separators)
	rows    map[int]bool // worker ids with a thread_name row emitted
	started bool
}

// ChromeEvent is one trace event: Phase "X" is a complete slice of Dur
// microseconds from TS, "I" an instant (Scope "t": thread-scoped), and
// "M" a metadata event naming a process or thread row in Args["name"].
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const (
	chromePID = 1
	// runRow hosts events with no worker affinity: marks (retries, fault
	// injections) and journal replays.
	runRow = 0
	// requestRow hosts the request spans of a serving process and their
	// non-attempt child stages; pool attempts land on their worker's row.
	requestRow = -1
)

func newChromeWriter(w io.Writer) *chromeWriter {
	return &chromeWriter{w: bufio.NewWriterSize(w, 64*1024), rows: map[int]bool{}}
}

// WriteChrome writes events, in order, as one Chrome trace-event JSON
// array.
func WriteChrome(w io.Writer, events []ChromeEvent) error {
	c := newChromeWriter(w)
	for _, ev := range events {
		if err := c.push(ev); err != nil {
			return err
		}
	}
	return c.close()
}

func (c *chromeWriter) push(ev ChromeEvent) error {
	if !c.started {
		if _, err := c.w.WriteString("[\n"); err != nil {
			return err
		}
		c.started = true
	}
	buf, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if c.wrote {
		if _, err := c.w.WriteString(",\n"); err != nil {
			return err
		}
	}
	c.wrote = true
	_, err = c.w.Write(buf)
	return err
}

// row ensures tid has a name row, emitting metadata lazily so only rows
// that actually carry events appear in the viewer.
func (c *chromeWriter) row(tid int, name string) error {
	if c.rows[tid] {
		return nil
	}
	c.rows[tid] = true
	if len(c.rows) == 1 {
		if err := c.push(ChromeEvent{
			Name: "process_name", Phase: "M", PID: chromePID,
			Args: map[string]any{"name": "dlexp sweep"},
		}); err != nil {
			return err
		}
	}
	return c.push(ChromeEvent{
		Name: "thread_name", Phase: "M", PID: chromePID, TID: tid,
		Args: map[string]any{"name": name},
	})
}

func (c *chromeWriter) emit(ev Event) error {
	switch ev.Kind {
	case "unit", "stage":
		tid := ev.Worker
		name := "run"
		if tid != runRow {
			name = "worker " + strconv.Itoa(tid)
		}
		if err := c.row(tid, name); err != nil {
			return err
		}
		args := map[string]any{"table": ev.Table, "graph": ev.Graph}
		if ev.Attempt != 0 {
			args["attempt"] = ev.Attempt
		}
		if ev.Label != "" {
			args["assigner"] = ev.Label
		}
		if ev.Size != 0 {
			args["size"] = ev.Size
		}
		if ev.Cache != "" {
			args["cache"] = ev.Cache
		}
		if ev.Outcome != "" {
			args["outcome"] = string(ev.Outcome)
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		name = ev.Stage
		if ev.Kind == "unit" {
			name = "unit g" + strconv.Itoa(ev.Graph)
			if ev.Outcome == OutcomeJournalReplayed {
				return c.instant(runRow, name, ev, args)
			}
		}
		return c.push(ChromeEvent{
			Name: name, Phase: "X",
			TS: float64(ev.TS) / 1e3, Dur: float64(ev.Dur) / 1e3,
			PID: chromePID, TID: tid, Args: args,
		})
	case "request", "rstage":
		tid := requestRow
		name := "requests"
		if ev.Kind == "rstage" && ev.Worker != 0 {
			tid, name = ev.Worker, "worker "+strconv.Itoa(ev.Worker)
		}
		if err := c.row(tid, name); err != nil {
			return err
		}
		args := map[string]any{"req": ev.Req}
		if ev.Table != "" {
			args["key"] = ev.Table
		}
		if ev.Tenant != "" {
			args["tenant"] = ev.Tenant
		}
		if ev.Class != "" {
			args["class"] = ev.Class
		}
		if ev.Attempt != 0 {
			args["attempt"] = ev.Attempt
		}
		if ev.Cache != "" {
			args["cache"] = ev.Cache
		}
		if ev.Outcome != "" {
			args["outcome"] = string(ev.Outcome)
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		name = ev.Stage
		if ev.Kind == "request" {
			name = "req " + shortID(ev.Req)
			args["tier"] = ev.Stage
		}
		if ev.Dur == 0 {
			return c.push(ChromeEvent{
				Name: name, Phase: "I", TS: float64(ev.TS) / 1e3,
				PID: chromePID, TID: tid, Scope: "t", Args: args,
			})
		}
		return c.push(ChromeEvent{
			Name: name, Phase: "X",
			TS: float64(ev.TS) / 1e3, Dur: float64(ev.Dur) / 1e3,
			PID: chromePID, TID: tid, Args: args,
		})
	case "mark":
		args := map[string]any{"table": ev.Table, "graph": ev.Graph, "outcome": string(ev.Outcome)}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		return c.instant(runRow, string(ev.Outcome)+" g"+strconv.Itoa(ev.Graph), ev, args)
	}
	return nil
}

// shortID abbreviates a request id for span names (the full id stays in
// args).
func shortID(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func (c *chromeWriter) instant(tid int, name string, ev Event, args map[string]any) error {
	if err := c.row(tid, "run"); err != nil {
		return err
	}
	return c.push(ChromeEvent{
		Name: name, Phase: "I", TS: float64(ev.TS) / 1e3,
		PID: chromePID, TID: tid, Scope: "t", Args: args,
	})
}

func (c *chromeWriter) close() error {
	if !c.started {
		if _, err := c.w.WriteString("[]\n"); err != nil {
			return err
		}
		return c.w.Flush()
	}
	if _, err := c.w.WriteString("\n]\n"); err != nil {
		return err
	}
	return c.w.Flush()
}
