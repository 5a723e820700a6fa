package cpd

import (
	"math/rand"
	"testing"

	"spblock/internal/als"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Memoization ablation (related-work extension): per-sweep CP-ALS cost
// with and without the shared mode-3 contraction. The kernels are built
// before the timer starts, so the ms/sweep metric is sweep work only
// (MTTKRP, solves and fit), not the engine and memo builds. Both run one
// worker: the memo folds are sequential, so a parallel plain engine
// would compare worker counts rather than flops.
func BenchmarkCPALSSweepPlain(b *testing.B) {
	benchCPALSSweeps(b, false)
}

func BenchmarkCPALSSweepMemoized(b *testing.B) {
	benchCPALSSweeps(b, true)
}

func benchCPALSSweeps(b *testing.B, memoize bool) {
	const sweeps = 3
	rng := rand.New(rand.NewSource(31))
	dims := []int{64, 64, 512}
	x := nmode.NewTensor(dims, 100_000)
	for p := 0; p < 100_000; p++ {
		// Long mode-3 fibers: many nonzeros per (i,j) pair, the regime
		// memoization targets.
		x.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, 1)
	}
	tensor.Dedup(x)
	opts := Options{Rank: 32, MaxIters: sweeps, Tol: 1e-15, Seed: 1, Memoize: memoize,
		Kernel: nmode.Options{Algorithm: nmode.AlgCOO, Workers: 1}}
	k, err := newKernel(x, opts)
	if err != nil {
		b.Fatal(err)
	}
	cfg := opts.sweeps(x.NormSquared())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := als.Run(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Iters != sweeps {
			b.Fatalf("ran %d sweeps, want %d", res.Iters, sweeps)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweeps)/1e6, "ms/sweep")
}
