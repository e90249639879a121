package core

import (
	"fmt"
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// disjointUnion builds one graph holding every subtask and arc of parts,
// part i's names prefixed with "<i>.". It returns the union and, per
// part, the union's ID of each of the part's nodes.
func disjointUnion(t *testing.T, parts ...*taskgraph.Graph) (*taskgraph.Graph, [][]taskgraph.NodeID) {
	t.Helper()
	b := taskgraph.NewBuilder()
	ids := make([][]taskgraph.NodeID, len(parts))
	for p, g := range parts {
		ids[p] = make([]taskgraph.NodeID, g.NumNodes())
		for _, n := range g.NodesView() {
			if n.Kind != taskgraph.KindSubtask {
				continue
			}
			id := b.AddSubtask(fmt.Sprintf("%d.%s", p, n.Name), n.Cost)
			if n.Release != 0 {
				b.SetRelease(id, n.Release)
			}
			if n.EndToEnd != 0 {
				b.SetEndToEnd(id, n.EndToEnd)
			}
			if n.Pinned != taskgraph.Unpinned {
				b.Pin(id, n.Pinned)
			}
			ids[p][n.ID] = id
		}
	}
	for p, g := range parts {
		for _, m := range g.NodesView() {
			if m.Kind == taskgraph.KindMessage {
				ids[p][m.ID] = b.Connect(ids[p][g.Pred(m.ID)[0]], ids[p][g.Succ(m.ID)[0]], m.Size)
			}
		}
	}
	u, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return u, ids
}

// TestDistributeDisjointUnion checks a relation that shares no code with
// the critical-path search: distributing two independent graphs together
// as one graph gives every node the release and window that distributing
// its own graph gives it. A path never crosses from one part to the
// other, so neither part's slicing can see the other's. PURE and NORM
// rank a path by its own costs and anchors alone; ADAPT and THRES read
// graph-wide means, so the relation does not hold for them.
func TestDistributeDisjointUnion(t *testing.T) {
	scenarios := generator.Scenarios()
	cases := 0
	for _, m := range []Metric{PURE(), NORM()} {
		for _, e := range []CommEstimator{CCNE(), CCAA()} {
			d := Distributor{Metric: m, Estimator: e}
			for _, size := range []int{2, 8} {
				sys, err := platform.New(size)
				if err != nil {
					t.Fatal(err)
				}
				for seed := uint64(1); seed <= 30; seed++ {
					var parts [2]*taskgraph.Graph
					for p := range parts {
						cfg := generator.Default(scenarios[(int(seed)+p)%len(scenarios)])
						if parts[p], err = generator.Random(cfg, rng.New(seed*7919+uint64(p))); err != nil {
							t.Fatal(err)
						}
					}
					union, ids := disjointUnion(t, parts[0], parts[1])
					ur, err := d.Distribute(union, sys)
					if err != nil {
						t.Fatal(err)
					}
					for p, g := range parts {
						pr, err := d.Distribute(g, sys)
						if err != nil {
							t.Fatal(err)
						}
						for id, uid := range ids[p] {
							if pr.Release[id] != ur.Release[uid] || pr.Relative[id] != ur.Relative[uid] {
								t.Fatalf("%s/%s size %d seed %d part %d node %q: alone release %v window %v, in the union %v and %v",
									m.Name(), e.Name(), size, seed, p, g.Node(taskgraph.NodeID(id)).Name,
									pr.Release[id], pr.Relative[id], ur.Release[uid], ur.Relative[uid])
							}
						}
					}
					cases++
				}
			}
		}
	}
	if cases < 240 {
		t.Fatalf("%d cases, want at least 240", cases)
	}
}
