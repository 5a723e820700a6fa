package engine

import (
	"math/rand"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// BenchmarkOrder3FastPath compares the two executor families on
// order-3 data: MultiModeExecutor over tensor.FromNMode runs the
// internal/core kernels ("core"), NewNEngine the nmode executors
// ("nmode"). The tensor is Poisson3 at bench scale (3750^3, 2.1M
// nonzeros) at rank 64, so every factor matrix (1.9 MB) exceeds a
// 512 KB L2; the plan is MB+RankB with a 2x2x2 grid, 32-column strips
// and 2 workers for both. One op is one product per mode (0, 1, 2)
// after a warm-up sweep; build-s is the executor construction time.
// CI gates the nmode/core ns/op ratio of one run, which cancels host
// drift.
func BenchmarkOrder3FastPath(b *testing.B) {
	spec, err := gen.Lookup("Poisson3")
	if err != nil {
		b.Fatal(err)
	}
	coo, err := spec.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.ToNMode(coo)
	const rank = 64
	rng := rand.New(rand.NewSource(1))
	factors := make([]*la.Matrix, 3)
	outs := make([]*la.Matrix, 3)
	for m := range factors {
		factors[m] = randMatrix(rng, x.Dims[m], rank)
		outs[m] = la.NewMatrix(x.Dims[m], rank)
	}
	opts := nmode.Options{Grid: []int{2, 2, 2}, RankBlockCols: 32, Workers: 2}
	plan := core.Plan{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 32, Workers: 2}
	type runner func(mode int) error
	for _, fam := range []struct {
		name  string
		build func() (runner, error)
	}{
		{"core", func() (runner, error) {
			t, err := tensor.FromNMode(x)
			if err != nil {
				return nil, err
			}
			me, err := NewMultiModeExecutor(t, plan)
			if err != nil {
				return nil, err
			}
			f3 := [3]*la.Matrix{factors[0], factors[1], factors[2]}
			return func(m int) error { return me.Run(m, f3, outs[m]) }, nil
		}},
		{"nmode", func() (runner, error) {
			e, err := NewNEngine(x, opts)
			if err != nil {
				return nil, err
			}
			return func(m int) error { return e.Run(m, factors, outs[m]) }, nil
		}},
	} {
		b.Run(fam.name, func(b *testing.B) {
			start := time.Now()
			run, err := fam.build()
			if err != nil {
				b.Fatal(err)
			}
			build := time.Since(start)
			sweep := func() {
				for m := range outs {
					if err := run(m); err != nil {
						b.Fatal(err)
					}
				}
			}
			sweep() // sizes the rank-dependent workspaces
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(build.Seconds(), "build-s")
		})
	}
}
