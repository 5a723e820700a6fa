package engine

import (
	"math/rand"
	"testing"
	"time"

	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// BenchmarkOrder3FastPath compares the two executor families on
// order-3 data: NewNEngine serves order-3 tensors with the internal/core
// kernels ("core"), NewNEngineGeneric with the generic nmode executors
// ("generic"). The tensor is Poisson3 at bench scale (3750^3, 2.1M
// nonzeros) at rank 64, so every factor matrix (1.9 MB) exceeds a
// 512 KB L2; the plan is MB+RankB with a 2x2x2 grid, 32-column strips
// and 2 workers. One op is one product per mode (0, 1, 2) after a
// warm-up sweep; build-s is the engine construction time.
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
	for _, fam := range []struct {
		name  string
		build func(*nmode.Tensor, nmode.Options, ...int) (*NEngine, error)
	}{
		{"core", NewNEngine},
		{"generic", NewNEngineGeneric},
	} {
		b.Run(fam.name, func(b *testing.B) {
			start := time.Now()
			e, err := fam.build(x, opts)
			if err != nil {
				b.Fatal(err)
			}
			build := time.Since(start)
			sweep := func() {
				for m := range outs {
					if err := e.Run(m, factors, outs[m]); err != nil {
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
