package core

import (
	"testing"

	"deadlinedist/internal/generator"
	"deadlinedist/internal/platform"
	"deadlinedist/internal/rng"
)

// BenchmarkDistributeVsReference pits the optimized distributor against the
// frozen pre-optimization reference on the same workload: the paper's
// default random graph (40–60 subtasks) at 4 processors. The pair
// quantifies what the reachability pruning, candidate memoization and
// generation-stamped rows buy.
func BenchmarkDistributeVsReference(b *testing.B) {
	g, err := generator.Random(generator.Default(generator.MDET), rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := platform.New(4)
	if err != nil {
		b.Fatal(err)
	}
	d := Distributor{Metric: ADAPT(1.25), Estimator: CCNE()}
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Distribute(g, sys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceDistribute(d, g, sys); err != nil {
				b.Fatal(err)
			}
		}
	})
}
