package scheduler

import (
	"reflect"
	"testing"

	"deadlinedist/internal/channel"
	"deadlinedist/internal/core"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
	"deadlinedist/internal/taskgraph"
)

// reuseCase is one (graph, system, distribution) pipeline input.
type reuseCase struct {
	g   *taskgraph.Graph
	sys *platform.System
	res *core.Result
}

func reuseCases(t *testing.T, opts ...platform.Option) []reuseCase {
	t.Helper()
	var cases []reuseCase
	for _, n := range []int{2, 5, 8} {
		sys, err := platform.New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := generator.Random(generator.Default(generator.MDET), rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Distributor{Metric: core.ADAPT(1.25), Estimator: core.CCNE()}.Distribute(g, sys)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, reuseCase{g: g, sys: sys, res: res})
		}
	}
	return cases
}

// snapshot deep-copies a schedule so a recycled one can be compared after
// the scratch has moved on to the next run.
func snapshot(s *Schedule) *Schedule {
	c := *s
	c.Start = append([]float64(nil), s.Start...)
	c.Finish = append([]float64(nil), s.Finish...)
	c.Proc = append([]int(nil), s.Proc...)
	c.Order = append([]taskgraph.NodeID(nil), s.Order...)
	c.Segments = append([]Segment(nil), s.Segments...)
	return &c
}

// TestReuseSchedulesMatchesFresh runs every pipeline case through one
// Scratch, which recycles its schedules, and checks each schedule against
// a share-nothing run: recycling must be invisible in the output, across
// the plain, contended-bus and preemptive models.
func TestReuseSchedulesMatchesFresh(t *testing.T) {
	cfg := Config{RespectRelease: true}
	t.Run("plain", func(t *testing.T) {
		sc := NewScratch()
		for i, c := range reuseCases(t) {
			want, err := Run(c.g, c.sys, c.res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Run(c.g, c.sys, c.res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snapshot(got), want) {
				t.Errorf("case %d: recycled schedule differs from fresh run", i)
			}
		}
	})
	t.Run("contended-bus", func(t *testing.T) {
		sc := NewScratch()
		for i, c := range reuseCases(t, platform.WithBusContention()) {
			want, err := Run(c.g, c.sys, c.res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Run(c.g, c.sys, c.res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snapshot(got), want) {
				t.Errorf("case %d: recycled contended-bus schedule differs from fresh run", i)
			}
		}
	})
	t.Run("preemptive", func(t *testing.T) {
		cfg := cfg
		cfg.Preemptive = true
		sc := NewScratch()
		for i, c := range reuseCases(t) {
			want, err := Run(c.g, c.sys, c.res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Run(c.g, c.sys, c.res, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snapshot(got), want) {
				t.Errorf("case %d: recycled preemptive schedule differs from fresh run", i)
			}
		}
	})
}

// TestReuseMultihopMatchesFresh is the network variant: the recycled
// schedule (shared hop map, presorted message order, hop backing) must
// reproduce the share-nothing run hop for hop.
func TestReuseMultihopMatchesFresh(t *testing.T) {
	sc := NewScratch()
	for i, c := range reuseCases(t) {
		net, err := channel.Ring(c.sys.NumProcs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{RespectRelease: true, Network: net}
		want, err := Run(c.g, c.sys, c.res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Run(c.g, c.sys, c.res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snapshot(got), snapshot(want)) {
			t.Errorf("case %d: recycled multihop schedule differs from fresh run", i)
		}
		if len(got.Hops) != len(want.Hops) {
			t.Fatalf("case %d: %d hop entries, want %d", i, len(got.Hops), len(want.Hops))
		}
		for m, hops := range want.Hops {
			if !reflect.DeepEqual(got.Hops[m], hops) {
				t.Errorf("case %d: message %v hops differ", i, m)
			}
		}
		if err := Validate(c.g, c.sys, c.res, got, cfg); err != nil {
			t.Errorf("case %d: recycled multihop schedule invalid: %v", i, err)
		}
	}
}
