package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/tensor"
)

// poisson3 generates the bench-scale Poisson3 tensor once per test
// binary: the testing package calls a benchmark function again for
// every -count and b.N round.
var poisson3 = sync.OnceValues(func() (*tensor.COO, error) {
	spec, err := gen.Lookup("Poisson3")
	if err != nil {
		return nil, err
	}
	return spec.Generate(1)
})

// BenchmarkMBRankBOverSPLATT measures the paper's headline claim in one
// process: the SPLATT baseline (Algorithm 1) against MB+RankB with a
// 2x2x2 grid and 32-column strips, both on 2 workers. The tensor is
// Poisson3 at bench scale (3750^3, 2.1M nonzeros) at rank 64, so every
// factor matrix (1.9 MB) exceeds a 512 KB L2. One op is one product
// per mode (0, 1, 2) with each plan, after a warm-up sweep; the two
// plans' sweeps alternate, so the reported mbrankb/splatt time ratio
// cancels host drift. CI gates that ratio. splatt-ms and mbrankb-ms are
// the per-sweep times, *-build-s the executor construction times.
func BenchmarkMBRankBOverSPLATT(b *testing.B) {
	x, err := poisson3()
	if err != nil {
		b.Fatal(err)
	}
	const rank = 64
	rng := rand.New(rand.NewSource(1))
	var factors, outs [3]*la.Matrix
	for m := range factors {
		factors[m] = randMatrix(rng, x.Dims[m], rank)
		outs[m] = la.NewMatrix(x.Dims[m], rank)
	}
	plans := [2]core.Plan{
		{Method: core.MethodSPLATT, Workers: 2},
		{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 32, Workers: 2},
	}
	var execs [2]*MultiModeExecutor
	var build, spent [2]time.Duration
	sweep := func(i int) {
		start := time.Now()
		for m := range outs {
			if err := execs[i].Run(m, factors, outs[m]); err != nil {
				b.Fatal(err)
			}
		}
		spent[i] += time.Since(start)
	}
	for i, plan := range plans {
		start := time.Now()
		if execs[i], err = NewMultiModeExecutor(x, plan); err != nil {
			b.Fatal(err)
		}
		build[i] = time.Since(start)
		sweep(i) // sizes the rank-dependent workspaces
	}
	spent = [2]time.Duration{}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sweep(0)
		sweep(1)
	}
	b.ReportMetric(spent[0].Seconds()*1e3/float64(b.N), "splatt-ms")
	b.ReportMetric(spent[1].Seconds()*1e3/float64(b.N), "mbrankb-ms")
	b.ReportMetric(spent[1].Seconds()/spent[0].Seconds(), "mbrankb/splatt")
	b.ReportMetric(build[0].Seconds(), "splatt-build-s")
	b.ReportMetric(build[1].Seconds(), "mbrankb-build-s")
}
