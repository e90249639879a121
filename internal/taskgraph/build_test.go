package taskgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"testing"
)

// buildDigestGraphs are decoded alongside the random DAGs of
// TestBuildDigest: pins, releases, deadlines, explicit names and names
// that need escaping.
var buildDigestGraphs = []string{
	`{"subtasks":[{"name":"a","cost":1,"pinned":0,"release":2},{"name":"b","cost":2,"endToEnd":9,"pinned":3}],"arcs":[{"from":"a","to":"b","size":0}]}`,
	`{"subtasks":[{"name":"<a>&\"\\","cost":1},{"name":"x\u2028y","cost":1,"endToEnd":3}],"arcs":[{"from":"<a>&\"\\","to":"x\u2028y","size":1}]}`,
	`{"subtasks":[{"name":"s","cost":1},{"name":"","cost":2},{"name":"m","cost":3},{"name":"e","cost":1,"endToEnd":20}],` +
		`"arcs":[{"from":"s","to":"","size":1},{"from":"s","to":"m","size":2},{"from":"","to":"e","size":3},{"from":"m","to":"e","size":4}]}`,
	`{"subtasks":[{"name":"only","cost":5,"release":1,"endToEnd":7}],"arcs":null}`,
}

// buildDigest is the hex sha256 over every array Finalize produces, for
// the graphs of TestBuildDigest, as the graph package built them before
// message names moved into one arena and the duplicate-arc set was
// keyed by integers.
const buildDigest = "e4508afcb4a5c37b71205e1ed3692bbda23dfb88779462510a5f600efc66942e"

// writeGraph writes everything Finalize produces for g.
func writeGraph(h hash.Hash, g *Graph) {
	fmt.Fprintf(h, "%v|%v|%v|%v|%v|%v|%v|%v|%v|%v\n", g.nodes, g.succOff, g.succAdj,
		g.predOff, g.predAdj, g.kinds, g.costs, g.topo, g.outputs, g.execLP)
}

// TestBuildDigest pins the built graph node for node: names, costs,
// adjacency, topological order, outputs and the longest-path memo of
// random DAGs built through the Builder (with and without a hint) and
// through Decode must hash as before.
func TestBuildDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 40; seed++ {
		g, _ := randomDAG(t, rand.New(rand.NewSource(seed)), 5+int(seed%17), seed%2 == 0)
		writeGraph(h, g)
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		writeGraph(h, d)
	}
	for _, s := range buildDigestGraphs {
		g, err := Decode([]byte(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		writeGraph(h, g)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != buildDigest {
		t.Errorf("built graphs hash to %s, want %s", got, buildDigest)
	}
}

// TestMessageNames: every communication subtask is named "m<u>_<v>"
// after the subtasks its arc joins, whether built directly or decoded.
func TestMessageNames(t *testing.T) {
	check := func(g *Graph) {
		t.Helper()
		msgs := 0
		for _, n := range g.NodesView() {
			if n.Kind != KindMessage {
				continue
			}
			msgs++
			if want := fmt.Sprintf("m%d_%d", g.Pred(n.ID)[0], g.Succ(n.ID)[0]); n.Name != want {
				t.Fatalf("message %d named %q, want %q", n.ID, n.Name, want)
			}
		}
		if msgs != g.NumMessages() || msgs == 0 {
			t.Fatalf("checked %d of %d messages", msgs, g.NumMessages())
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		g, _ := randomDAG(t, rand.New(rand.NewSource(seed)), 12+int(seed), seed%2 == 1)
		check(g)
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		check(d)
	}
}

// TestConnectAllocatesNothing: on a presized Builder, Connect writes the
// message name into the arena and the arc into presized containers, so
// it allocates nothing, no string included.
func TestConnectAllocatesNothing(t *testing.T) {
	const runs, subtasks = 100, 300
	b := newBuilderSized(subtasks, runs+1)
	for i := 0; i < subtasks; i++ {
		b.AddSubtask("s"+strconv.Itoa(i), 1)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		b.Connect(NodeID(k), NodeID(k+100), 1)
		k++
	})
	if allocs != 0 {
		t.Errorf("Connect: %.1f allocs, want 0", allocs)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMessages() != runs+1 || g.Node(NodeID(subtasks)).Name != "m0_100" {
		t.Fatalf("%d messages, first named %q", g.NumMessages(), g.Node(NodeID(subtasks)).Name)
	}
}
