package core_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
)

// poisson3 generates the bench-scale Poisson3 tensor once per test
// binary: the testing package calls a benchmark function again for
// every -count and b.N round.
var poisson3 = sync.OnceValues(func() (*nmode.Tensor, error) {
	spec, err := gen.Lookup("Poisson3")
	if err != nil {
		return nil, err
	}
	return spec.Generate(1)
})

// poisson1Small generates Poisson1 at scale 0.2 (51^3), once per test
// binary.
var poisson1Small = sync.OnceValues(func() (*nmode.Tensor, error) {
	spec, err := gen.Lookup("Poisson1")
	if err != nil {
		return nil, err
	}
	return spec.GenerateAt([]int{51, 51, 51}, spec.BenchNNZ/5, 42)
})

// alternate builds one engine per plan on x and runs a warm-up sweep
// (one product per mode) with each, which sizes the rank-dependent
// workspaces. It then times b.N rounds in which every plan runs one
// sweep in turn, so host drift hits all plans alike, and returns each
// plan's total sweep time and engine construction time.
func alternate(b *testing.B, x *nmode.Tensor, rank int, plans []core.Plan) (spent, build []time.Duration) {
	rng := rand.New(rand.NewSource(1))
	factors, outs := make([]*la.Matrix, 3), make([]*la.Matrix, 3)
	for m := range factors {
		factors[m] = core.RandMatrix(rng, x.Dims[m], rank)
		outs[m] = la.NewMatrix(x.Dims[m], rank)
	}
	execs := make([]*nmode.Engine, len(plans))
	spent, build = make([]time.Duration, len(plans)), make([]time.Duration, len(plans))
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
		var err error
		if execs[i], err = core.NewEngine(x, plan); err != nil {
			b.Fatal(err)
		}
		build[i] = time.Since(start)
		sweep(i)
		spent[i] = 0
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range plans {
			sweep(i)
		}
	}
	return spent, build
}

// BenchmarkMBRankBOverSPLATT measures the paper's headline claim in one
// process: the SPLATT baseline (Algorithm 1) against MB+RankB with a
// 2x2x2 grid and 32-column strips, both on 2 workers. The tensor is
// Poisson3 at bench scale (3750^3, 2.1M nonzeros) at rank 64, so every
// factor matrix (1.9 MB) exceeds a 512 KB L2. One op is one product
// per mode (0, 1, 2) with each plan, after a warm-up sweep. A COO
// engine on 2 workers runs alongside as the reference for the SPLATT
// row. The plans' sweeps alternate, so the reported time ratios cancel
// host drift: mbrankb/splatt bounds the blocked register walk against
// the accumulator walk, and splatt/coo the accumulator walk against the
// coordinate kernel. 87% of the blocked trees' fibers hold one nonzero,
// and the register walk adds those without its register kernel while
// SPLATT keeps Algorithm 1's body, so mbrankb/splatt measures that
// short-fiber path as well as blocking. CI gates both ratios. *-ms are
// the per-sweep times, *-build-s the executor construction times.
func BenchmarkMBRankBOverSPLATT(b *testing.B) {
	x, err := poisson3()
	if err != nil {
		b.Fatal(err)
	}
	spent, build := alternate(b, x, 64, []core.Plan{
		{Method: core.MethodSPLATT, Workers: 2},
		{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 32, Workers: 2},
		{Method: core.MethodCOO, Workers: 2},
	})
	b.ReportMetric(spent[0].Seconds()*1e3/float64(b.N), "splatt-ms")
	b.ReportMetric(spent[1].Seconds()*1e3/float64(b.N), "mbrankb-ms")
	b.ReportMetric(spent[2].Seconds()*1e3/float64(b.N), "coo-ms")
	b.ReportMetric(spent[1].Seconds()/spent[0].Seconds(), "mbrankb/splatt")
	b.ReportMetric(spent[0].Seconds()/spent[2].Seconds(), "splatt/coo")
	b.ReportMetric(build[0].Seconds(), "splatt-build-s")
	b.ReportMetric(build[1].Seconds(), "mbrankb-build-s")
}

// BenchmarkRegisterWalkInCache times the three MTTKRP bodies where
// register blocking shows: Poisson1 at scale 0.2 (51^3, 62k nonzeros,
// fibers of 24 nonzeros on average) at rank 32, whose 13 KB factors
// stay in cache, on one worker. Poisson3's fibers average 1.16
// nonzeros and 87% hold one, which the register walk adds without its
// register kernel, so register blocking cannot show there. RankB with
// 32-column strips runs the register walk, SPLATT the accumulator walk
// and COO the coordinate kernel, one sweep each in turn. CI gates
// rankb/splatt, which a register walk fallen back to scalar tails
// raises from about 1.0 to 1.6, and splatt/coo.
func BenchmarkRegisterWalkInCache(b *testing.B) {
	x, err := poisson1Small()
	if err != nil {
		b.Fatal(err)
	}
	spent, _ := alternate(b, x, 32, []core.Plan{
		{Method: core.MethodSPLATT, Workers: 1},
		{Method: core.MethodRankB, RankBlockCols: 32, Workers: 1},
		{Method: core.MethodCOO, Workers: 1},
	})
	b.ReportMetric(spent[0].Seconds()*1e3/float64(b.N), "splatt-ms")
	b.ReportMetric(spent[1].Seconds()*1e3/float64(b.N), "rankb-ms")
	b.ReportMetric(spent[2].Seconds()*1e3/float64(b.N), "coo-ms")
	b.ReportMetric(spent[1].Seconds()/spent[0].Seconds(), "rankb/splatt")
	b.ReportMetric(spent[0].Seconds()/spent[2].Seconds(), "splatt/coo")
}
