package taskgraph

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// JSON interchange format. Arcs are encoded between ordinary subtasks with
// the message size attached, so the on-disk form mirrors how applications
// are specified; communication subtasks are re-materialized by Build.

// Wire is a task graph in its decoded interchange form: what
// encoding/json produces from the JSON before any validation. Build turns
// it into a Graph; AppendCanonical writes its canonical bytes without
// building anything, which is what lets a content-addressed cache key a
// graph before paying for its construction.
type Wire struct {
	Subtasks []WireSubtask `json:"subtasks"`
	Arcs     []WireArc     `json:"arcs"`
}

// WireSubtask is one ordinary subtask of the interchange form. An empty
// Name is replaced by "t<index>" when built.
type WireSubtask struct {
	Name     string  `json:"name"`
	Cost     float64 `json:"cost"`
	Release  float64 `json:"release,omitempty"`
	EndToEnd float64 `json:"endToEnd,omitempty"`
	Pinned   *int    `json:"pinned,omitempty"`
}

// WireArc is one precedence arc between two subtasks, named by their wire
// names, carrying a message of Size data items.
type WireArc struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Size float64 `json:"size"`
}

// Build validates the interchange form and constructs its Graph. It does
// not modify w.
//
// Every subtask of the graph has a name of its own: Build rejects a
// repeated name, and an unnamed subtask whose generated name "t<index>"
// is another subtask's explicit name, as ambiguous. An arc endpoint
// resolves the unnamed subtask by its empty name or by its generated one.
func (w *Wire) Build() (*Graph, error) {
	b := newBuilderSized(len(w.Subtasks), len(w.Arcs))
	ids := make(map[string]NodeID, len(w.Subtasks))
	anon := -1 // the unnamed subtask; a second one is a duplicate
	for i := range w.Subtasks {
		st := &w.Subtasks[i]
		if _, dup := ids[st.Name]; dup {
			return nil, fmt.Errorf("decode task graph: duplicate subtask name %q", st.Name)
		}
		if st.Name == "" {
			anon = i
		}
		id := b.AddSubtask(st.Name, st.Cost)
		if st.Release != 0 {
			b.SetRelease(id, st.Release)
		}
		if st.EndToEnd != 0 {
			b.SetEndToEnd(id, st.EndToEnd)
		}
		if st.Pinned != nil {
			b.Pin(id, *st.Pinned)
		}
		ids[st.Name] = id
	}
	if anon >= 0 {
		var buf [24]byte
		gen := strconv.AppendInt(append(buf[:0], 't'), int64(anon), 10)
		if other, clash := ids[string(gen)]; clash {
			return nil, fmt.Errorf("decode task graph: unnamed subtask %d gets the name %q, which subtask %d already has", anon, gen, other)
		}
		ids[string(gen)] = ids[""]
	}
	for _, a := range w.Arcs {
		u, ok := ids[a.From]
		if !ok {
			return nil, fmt.Errorf("decode task graph: arc from unknown subtask %q", a.From)
		}
		v, ok := ids[a.To]
		if !ok {
			return nil, fmt.Errorf("decode task graph: arc to unknown subtask %q", a.To)
		}
		b.Connect(u, v, a.Size)
	}
	g, err := b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("decode task graph: %w", err)
	}
	return g, nil
}

// wire is the interchange form of g: subtasks in ID order, then one arc
// per communication subtask in ID order (the order Build created them).
func (g *Graph) wire() Wire {
	ns := g.NumSubtasks()
	w := Wire{Subtasks: make([]WireSubtask, 0, ns), Arcs: make([]WireArc, 0, len(g.nodes)-ns)}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Kind != KindSubtask {
			continue
		}
		st := WireSubtask{Name: n.Name, Cost: n.Cost, Release: n.Release, EndToEnd: n.EndToEnd}
		if n.Pinned != Unpinned {
			pinned := n.Pinned
			st.Pinned = &pinned
		}
		w.Subtasks = append(w.Subtasks, st)
	}
	for i := range g.nodes {
		m := &g.nodes[i]
		if m.Kind != KindMessage {
			continue
		}
		w.Arcs = append(w.Arcs, WireArc{
			From: g.nodes[g.Pred(m.ID)[0]].Name,
			To:   g.nodes[g.Succ(m.ID)[0]].Name,
			Size: m.Size,
		})
	}
	return w
}

// MarshalJSON encodes the graph in the interchange format. It is the wire
// form's canonical encoding, so a graph marshals to exactly the bytes its
// wire form keys to.
func (g *Graph) MarshalJSON() ([]byte, error) {
	w := g.wire()
	return w.AppendCanonical(nil)
}

// Decode builds a Graph from its JSON interchange form.
func Decode(data []byte) (*Graph, error) {
	w, err := decodeWire(data)
	if err != nil {
		return nil, fmt.Errorf("decode task graph: %w", err)
	}
	return w.Build()
}

// decodeWire decodes data as json.Unmarshal does into a Wire. Input in
// the Scanner's strict subset, followed by nothing but whitespace, takes
// the one-pass scan; anything else is json.Unmarshal's, errors included.
func decodeWire(data []byte) (Wire, error) {
	var w Wire
	sc := NewScanner(string(data))
	if sc.Wire(&w); sc.atEnd() && !sc.Failed() {
		// The graph outlives data: its names get storage of their own
		// rather than substrings that would pin the whole source.
		for i := range w.Subtasks {
			w.Subtasks[i].Name = strings.Clone(w.Subtasks[i].Name)
		}
		return w, nil
	}
	w = Wire{}
	err := json.Unmarshal(data, &w)
	return w, err
}

// DOT renders the graph in Graphviz DOT syntax. Ordinary subtasks are boxes
// labelled with their execution times; arcs are labelled with message sizes.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph taskgraph {\n  rankdir=TB;\n  node [shape=box];\n")
	for i := range g.nodes {
		n := g.nodes[i]
		if n.Kind != KindSubtask {
			continue
		}
		extra := ""
		if g.InDegree(n.ID) == 0 && n.Release != 0 {
			extra = fmt.Sprintf("\\nr=%.4g", n.Release)
		}
		if g.OutDegree(n.ID) == 0 && n.EndToEnd != 0 {
			extra += fmt.Sprintf("\\nD=%.4g", n.EndToEnd)
		}
		fmt.Fprintf(&sb, "  %q [label=\"%s\\nc=%.4g%s\"];\n", n.Name, n.Name, n.Cost, extra)
	}
	type edge struct{ from, to, label string }
	var edges []edge
	for i := range g.nodes {
		m := g.nodes[i]
		if m.Kind != KindMessage {
			continue
		}
		edges = append(edges, edge{
			from:  g.nodes[g.Pred(m.ID)[0]].Name,
			to:    g.nodes[g.Succ(m.ID)[0]].Name,
			label: fmt.Sprintf("%.4g", m.Size),
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%s\"];\n", e.from, e.to, e.label)
	}
	sb.WriteString("}\n")
	return sb.String()
}
