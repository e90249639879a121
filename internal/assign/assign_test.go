package assign

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/scheduler"
	"deadlinedist/internal/taskgraph"
)

func sys(t *testing.T, n int) *platform.System {
	t.Helper()
	s, err := platform.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClusterCoversAllSubtasks(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask {
			if a[n.ID] < 0 || a[n.ID] >= 4 {
				t.Fatalf("subtask %v assigned to %d", n.ID, a[n.ID])
			}
		} else if a[n.ID] != -1 {
			t.Fatalf("message %v assigned to %d", n.ID, a[n.ID])
		}
	}
}

func TestClusterChainStaysTogether(t *testing.T) {
	// A pure chain has no parallelism: zeroing every edge never lengthens
	// the critical path, so the whole chain lands on one processor.
	b := taskgraph.NewBuilder()
	var prev taskgraph.NodeID = taskgraph.None
	for i := 0; i < 6; i++ {
		id := b.AddSubtask("", 10)
		if i > 0 {
			b.Connect(prev, id, 5)
		}
		prev = id
	}
	b.SetEndToEnd(prev, 500)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	first := a[0]
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask && a[n.ID] != first {
			t.Fatalf("chain split across processors: %v", a)
		}
	}
}

func TestClusterIndependentTasksSpread(t *testing.T) {
	// Independent equal tasks must load-balance across processors.
	b := taskgraph.NewBuilder()
	ids := make([]taskgraph.NodeID, 4)
	for i := range ids {
		ids[i] = b.AddSubtask("", 10)
		b.SetEndToEnd(ids[i], 100)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		seen[a[id]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("independent tasks on %d processors, want 4: %v", len(seen), a)
	}
}

func TestClusterHonoursPins(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Connect(x, y, 100) // huge message: clustering wants them together
	b.Pin(x, 3)
	b.SetEndToEnd(y, 500)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if a[x] != 3 {
		t.Fatalf("pinned subtask assigned to %d, want 3", a[x])
	}
	if a[y] != 3 {
		t.Fatalf("heavily-communicating partner assigned to %d, want co-located 3", a[y])
	}
}

func TestClusterPinConflict(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 10)
	y := b.AddSubtask("y", 10)
	b.Connect(x, y, 1e9) // force a merge attempt
	b.Pin(x, 0)
	b.Pin(y, 1)
	b.SetEndToEnd(y, 1e12)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 2)
	a, err := Cluster(g, s)
	// Either the merge is refused (valid assignment respecting both pins)
	// or a conflict is reported — both are acceptable; silent violation is
	// not.
	if err != nil {
		if !errors.Is(err, ErrPinConflict) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if a[x] != 0 || a[y] != 1 {
		t.Fatalf("pins violated: %v", a)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, nil); !errors.Is(err, ErrNilInput) {
		t.Fatalf("nil inputs: %v", err)
	}
	// A negative or infinite per-item cost would let the skipped
	// critical-path check reject merges, so Cluster refuses it. platform.New
	// refuses such costs on its own topologies, so a topology defined here
	// carries them.
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, cost := range []float64{-1, math.Inf(1)} {
		s, err := platform.New(4, platform.WithTopology(flatBus{cost}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Cluster(g, s); !errors.Is(err, ErrBadCommCost) {
			t.Errorf("PerItemCost %v: got %v, want ErrBadCommCost", cost, err)
		}
	}
}

// flatBus costs a message as platform.SharedBus does, but New cannot check
// the cost of a topology defined outside its package.
type flatBus struct{ perItem float64 }

func (flatBus) Name() string { return "flat-bus" }

func (b flatBus) CommCost(from, to int, size float64) float64 {
	if from == to {
		return 0
	}
	return b.perItem * size
}

func TestApplyPinsEverything(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Apply(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range pinned.Nodes() {
		if n.Kind == taskgraph.KindSubtask && n.Pinned != a[n.ID] {
			t.Fatalf("subtask %v pinned to %d, assignment says %d", n.ID, n.Pinned, a[n.ID])
		}
	}
	// Original untouched.
	for _, n := range g.Nodes() {
		if n.Kind == taskgraph.KindSubtask && n.Pinned != taskgraph.Unpinned &&
			g.Node(n.ID).Pinned != n.Pinned {
			t.Fatal("Apply modified the original graph")
		}
	}
}

func TestApplyErrors(t *testing.T) {
	b := taskgraph.NewBuilder()
	x := b.AddSubtask("x", 1)
	b.SetEndToEnd(x, 10)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(g, Assignment{0, 0, 0}); err == nil {
		t.Error("wrong-size assignment accepted")
	}
	if _, err := Apply(g, Assignment{-1}); err == nil {
		t.Error("unassigned subtask accepted")
	}
}

// TestAssignmentFirstPipeline runs the conventional flow end to end:
// cluster, pin, distribute with exact communication costs, schedule.
func TestAssignmentFirstPipeline(t *testing.T) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, 4)
	a, err := Cluster(g, s)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Apply(g, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Distributor{Metric: core.PURE(), Estimator: core.CCKnown(a)}.Distribute(pinned, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduler.Config{RespectRelease: true}
	sched, err := scheduler.Run(pinned, s, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(pinned, s, res, sched, cfg); err != nil {
		t.Fatal(err)
	}
	// Every subtask ran where the assignment put it.
	for _, n := range pinned.Nodes() {
		if n.Kind == taskgraph.KindSubtask && sched.Proc[n.ID] != a[n.ID] {
			t.Fatalf("subtask %v ran on %d, assigned %d", n.ID, sched.Proc[n.ID], a[n.ID])
		}
	}
}

// Property: clustering always yields a complete, in-range assignment.
func TestPropertyClusterComplete(t *testing.T) {
	wcfg := generator.Default(generator.HDET)
	f := func(seed uint64, procs uint8) bool {
		n := int(procs%8) + 2
		g, err := generator.Random(wcfg, rng.New(seed))
		if err != nil {
			return false
		}
		s, err := platform.New(n)
		if err != nil {
			return false
		}
		a, err := Cluster(g, s)
		if err != nil {
			return false
		}
		for _, node := range g.Nodes() {
			if node.Kind == taskgraph.KindSubtask && (a[node.ID] < 0 || a[node.ID] >= n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// clusterReference is Cluster as it was written with Sarkar's full merge
// test: every tentative merge recomputes the estimated critical path
// (execution plus size × mean pair cost of every unzeroed arc) and is
// undone if the path grows. Cluster skips that recomputation; the two must
// assign identically on every platform Cluster accepts.
func clusterReference(g *taskgraph.Graph, sys *platform.System) (Assignment, error) {
	if g == nil || sys == nil {
		return nil, ErrNilInput
	}
	n := g.NumNodes()

	// Union-find over subtasks.
	parent := make([]taskgraph.NodeID, n)
	for i := range parent {
		parent[i] = taskgraph.NodeID(i)
	}
	var find func(taskgraph.NodeID) taskgraph.NodeID
	find = func(x taskgraph.NodeID) taskgraph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// rootPin tracks the strict locality constraint of each cluster;
	// clusters with conflicting pins are never merged.
	rootPin := make([]int, n)
	for i := range rootPin {
		rootPin[i] = taskgraph.Unpinned
	}
	for _, node := range g.NodesView() {
		if node.Kind == taskgraph.KindSubtask {
			rootPin[node.ID] = node.Pinned
		}
	}

	// rootLoad tracks cluster workloads; merges stop at the balanced
	// per-processor share so the clustering stays platform-aware (a
	// load-capped Sarkar variant — unbounded edge zeroing collapses
	// layered graphs into one or two clusters).
	rootLoad := make([]float64, n)
	maxCost := 0.0
	for _, node := range g.NodesView() {
		if node.Kind == taskgraph.KindSubtask {
			rootLoad[node.ID] = node.Cost
			if node.Cost > maxCost {
				maxCost = node.Cost
			}
		}
	}
	// The cap is the balanced per-processor share, but never below the
	// critical-path workload: a cluster following one dependence chain
	// gains nothing from being split, however many processors exist.
	loadCap := g.TotalWork() / float64(sys.NumProcs())
	if cp := g.LongestPath(taskgraph.ExecCost); loadCap < cp {
		loadCap = cp
	}
	if loadCap < maxCost {
		loadCap = maxCost
	}

	// zeroed[m] marks messages made free by clustering.
	zeroed := make([]bool, n)
	pairCost := meanPairCost(sys)
	commCost := func(m taskgraph.NodeID) float64 {
		if zeroed[m] {
			return 0
		}
		if root := find(g.Pred(m)[0]); root == find(g.Succ(m)[0]) {
			return 0
		}
		return g.Node(m).Size * pairCost
	}
	criticalPath := func() float64 {
		return g.LongestPath(func(node taskgraph.Node) float64 {
			if node.Kind == taskgraph.KindSubtask {
				return node.Cost
			}
			return commCost(node.ID)
		})
	}

	// Edge zeroing in decreasing message-size order.
	var msgs []taskgraph.NodeID
	for _, node := range g.NodesView() {
		if node.Kind == taskgraph.KindMessage {
			msgs = append(msgs, node.ID)
		}
	}
	sort.Slice(msgs, func(i, j int) bool {
		si, sj := g.Node(msgs[i]).Size, g.Node(msgs[j]).Size
		if si != sj {
			return si > sj
		}
		return msgs[i] < msgs[j]
	})

	best := criticalPath()
	for _, m := range msgs {
		u, v := find(g.Pred(m)[0]), find(g.Succ(m)[0])
		if u == v {
			zeroed[m] = true
			continue
		}
		// Never join clusters carrying conflicting strict locality
		// constraints, and keep cluster loads within the balanced share.
		if rootPin[u] != taskgraph.Unpinned && rootPin[v] != taskgraph.Unpinned &&
			rootPin[u] != rootPin[v] {
			continue
		}
		if rootLoad[u]+rootLoad[v] > loadCap+1e-9 {
			continue
		}
		// Tentatively merge and keep the merge only if the critical path
		// does not grow (serializing the clusters may lengthen it even
		// though the message became free).
		oldU, oldV := parent[u], parent[v]
		parent[v] = u
		zeroed[m] = true
		if cp := criticalPath(); cp <= best+1e-9 {
			best = cp
			if rootPin[u] == taskgraph.Unpinned {
				rootPin[u] = rootPin[v]
			}
			rootLoad[u] += rootLoad[v]
			continue
		}
		parent[u], parent[v] = oldU, oldV
		zeroed[m] = false
	}

	return mapClustersReference(g, sys, find)
}

// mapClustersReference is the map-of-clusters placement mapClusters
// replaced: one heap cluster per root collecting its member IDs.
func mapClustersReference(g *taskgraph.Graph, sys *platform.System,
	find func(taskgraph.NodeID) taskgraph.NodeID) (Assignment, error) {

	type cluster struct {
		load float64
		pin  int
		ids  []taskgraph.NodeID
	}
	clusters := make(map[taskgraph.NodeID]*cluster)
	for _, node := range g.NodesView() {
		if node.Kind != taskgraph.KindSubtask {
			continue
		}
		root := find(node.ID)
		c := clusters[root]
		if c == nil {
			c = &cluster{pin: taskgraph.Unpinned}
			clusters[root] = c
		}
		c.load += node.Cost
		c.ids = append(c.ids, node.ID)
		if node.Pinned != taskgraph.Unpinned {
			if c.pin != taskgraph.Unpinned && c.pin != node.Pinned {
				return nil, fmt.Errorf("cluster of %q: %w", node.Name, ErrPinConflict)
			}
			if node.Pinned >= sys.NumProcs() {
				return nil, fmt.Errorf("subtask %q pinned to %d on %d processors",
					node.Name, node.Pinned, sys.NumProcs())
			}
			c.pin = node.Pinned
		}
	}
	ordered := make([]*cluster, 0, len(clusters))
	for _, c := range clusters {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].load != ordered[j].load {
			return ordered[i].load > ordered[j].load
		}
		return ordered[i].ids[0] < ordered[j].ids[0]
	})

	out := make(Assignment, g.NumNodes())
	for i := range out {
		out[i] = -1
	}
	loads := make([]float64, sys.NumProcs())
	for _, c := range ordered {
		p := c.pin
		if p == taskgraph.Unpinned {
			p = 0
			for q := 1; q < sys.NumProcs(); q++ {
				if loads[q] < loads[p] {
					p = q
				}
			}
		}
		loads[p] += c.load / sys.Speed(p)
		for _, id := range c.ids {
			out[id] = p
		}
	}
	return out, nil
}

// TestClusterMatchesCriticalPathReference checks that dropping the
// critical-path recomputation changes no assignment: random and structured
// graphs, with and without pinned subtasks, on 1–16 processors.
func TestClusterMatchesCriticalPathReference(t *testing.T) {
	var graphs []*taskgraph.Graph
	for seed := uint64(1); seed <= 6; seed++ {
		g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, shape := range generator.Shapes() {
		cfg := generator.StructuredConfig{Workload: generator.Default(generator.MDET), Shape: shape, Depth: 4, Width: 3}
		g, err := generator.Structured(cfg, rng.New(uint64(shape)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for n := 1; n <= 16; n++ {
		s := sys(t, n)
		for gi, g := range graphs {
			for _, pinned := range []bool{false, true} {
				in := g
				if pinned {
					in = g.Clone()
					for _, node := range g.NodesView() {
						if node.Kind == taskgraph.KindSubtask && node.ID%3 == 0 {
							if err := in.SetPinned(node.ID, int(node.ID)%min(n, 3)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				want, werr := clusterReference(in, s)
				got, err := Cluster(in, s)
				if (err != nil) != (werr != nil) {
					t.Fatalf("n=%d graph %d pinned=%v: error %v, reference %v", n, gi, pinned, err, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d graph %d pinned=%v: assignment %v, reference %v", n, gi, pinned, got, want)
				}
			}
		}
	}
}
