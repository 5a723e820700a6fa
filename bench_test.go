package spblock_test

import (
	"math/rand"
	"testing"

	"spblock"
	"spblock/internal/bench"
	"spblock/internal/cachesim"
	"spblock/internal/gen"
	"spblock/internal/nmode"
)

// The Benchmark* functions below regenerate each table/figure of the
// paper at smoke-test scale (bench.Quick); the full-scale runs behind
// EXPERIMENTS.md go through cmd/spblock-exp. The BenchmarkMTTKRP*
// functions are conventional kernel micro-benchmarks.

func BenchmarkFig2Roofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1PPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(bench.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(bench.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4RankBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig4(bench.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5MBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5(bench.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6(bench.Quick(), []int{16, 64}, []string{"Poisson2", "NELL2"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6Traffic(bench.Quick(), 64, []string{"Poisson2"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(bench.Quick(), []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOperands builds a shared workload for the kernel micro-benches:
// a 96x2048x96 tensor with 200k nonzeros at rank 128, whose mode-2
// factor (2 MB) exceeds a POWER8-class L2 — the regime the paper's
// optimisations target.
func benchOperands(b *testing.B) (*spblock.Tensor, *spblock.Matrix, *spblock.Matrix, *spblock.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	dims := spblock.Dims{96, 2048, 96}
	x := spblock.NewTensor(dims, 200_000)
	for p := 0; p < 200_000; p++ {
		x.Append(
			int32(rng.Intn(dims[0])),
			int32(rng.Intn(dims[1])),
			int32(rng.Intn(dims[2])),
			rng.Float64(),
		)
	}
	x.Dedup()
	const rank = 128
	bm := spblock.NewMatrix(dims[1], rank)
	cm := spblock.NewMatrix(dims[2], rank)
	for i := range bm.Data {
		bm.Data[i] = rng.Float64()
	}
	for i := range cm.Data {
		cm.Data[i] = rng.Float64()
	}
	return x, bm, cm, spblock.NewMatrix(dims[0], rank)
}

func benchKernel(b *testing.B, plan spblock.Plan) {
	x, bm, cm, out := benchOperands(b)
	exec, err := spblock.NewMultiExecutor(x, plan, 0)
	if err != nil {
		b.Fatal(err)
	}
	factors := [3]*spblock.Matrix{nil, bm, cm}
	stats := spblock.ComputeStats(x)
	flops := 2 * int64(out.Cols) * (int64(stats.NNZ) + int64(stats.Fibers))
	b.SetBytes(flops)                                 // reported "MB/s" is really MFLOP/s x 1e-6
	b.ReportAllocs()                                  // steady-state Run must stay at 0 allocs/op
	if err := exec.Run(0, factors, out); err != nil { // warm-up sizes the workspace
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exec.Run(0, factors, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMTTKRPCOO(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodCOO})
}

func BenchmarkMTTKRPSPLATT(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodSPLATT, Workers: 1})
}

func BenchmarkMTTKRPMB(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodMB, Grid: [3]int{1, 8, 1}, Workers: 1})
}

func BenchmarkMTTKRPRankB(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: 32, Workers: 1})
}

func BenchmarkMTTKRPMBRankB(b *testing.B) {
	benchKernel(b, spblock.Plan{
		Method: spblock.MethodMBRankB, Grid: [3]int{1, 8, 1}, RankBlockCols: 32, Workers: 1,
	})
}

// benchOperandsN builds the order-4 analogue: a 96x512x96x24 tensor
// with 200k nonzeros at rank 64, run through the unified N-mode engine.
func benchOperandsN(b *testing.B) (*spblock.TensorN, []*spblock.Matrix, *spblock.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	dims := []int{96, 512, 96, 24}
	x := spblock.NewTensorN(dims, 200_000)
	coords := make([]int32, 4)
	for p := 0; p < 200_000; p++ {
		for m, d := range dims {
			coords[m] = int32(rng.Intn(d))
		}
		x.Append(coords, rng.Float64())
	}
	if _, err := x.Dedup(); err != nil {
		b.Fatal(err)
	}
	const rank = 64
	factors := make([]*spblock.Matrix, 4)
	for m := 1; m < 4; m++ {
		factors[m] = spblock.NewMatrix(dims[m], rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
	}
	return x, factors, spblock.NewMatrix(dims[0], rank)
}

func benchKernelN(b *testing.B, opts spblock.OptionsN) {
	x, factors, out := benchOperandsN(b)
	exec, err := spblock.NewExecutorN(x, 0, opts)
	if err != nil {
		b.Fatal(err)
	}
	flops := int64(x.Order()-1) * int64(out.Cols) * int64(x.NNZ())
	b.SetBytes(flops)                              // reported "MB/s" is really MFLOP/s x 1e-6
	b.ReportAllocs()                               // steady-state Run must stay at 0 allocs/op
	if err := exec.Run(factors, out); err != nil { // warm-up sizes the workspace
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exec.Run(factors, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMTTKRPN(b *testing.B) {
	benchKernelN(b, spblock.OptionsN{Workers: 1})
}

func BenchmarkMTTKRPNRankB(b *testing.B) {
	benchKernelN(b, spblock.OptionsN{RankBlockCols: 32, Workers: 1})
}

func BenchmarkMTTKRPNMB(b *testing.B) {
	benchKernelN(b, spblock.OptionsN{Grid: []int{1, 4, 1, 1}, Workers: 1})
}

func BenchmarkMTTKRPNMBRankB(b *testing.B) {
	benchKernelN(b, spblock.OptionsN{Grid: []int{1, 4, 1, 1}, RankBlockCols: 32, Workers: 1})
}

func BenchmarkBuildCSF(b *testing.B) {
	x, _, _, _ := benchOperands(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spblock.BuildCSF(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildBlocked(b *testing.B) {
	x, _, _, _ := benchOperands(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spblock.BuildBlocked(x, [3]int{2, 8, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildBlockedN builds the order-4 blocked layouts of the
// ooc-stream shape (Poisson 96x72x60x48, 400k events, grid 3x2x2x2) for
// all four root modes, as a CP-ALS setup does.
func BenchmarkBuildBlockedN(b *testing.B) {
	x, err := gen.PoissonN(gen.PoissonNParams{Dims: []int{96, 72, 60, 48}, Events: 400_000, Components: 48, Spread: 1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	grid := []int{3, 2, 2, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for mode := range x.Dims {
			if _, err := nmode.BuildBlocked(x, grid, nmode.DefaultModeOrder(x.Dims, mode)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCacheSimSPLATT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := spblock.NewTensor(spblock.Dims{32, 512, 32}, 20_000)
	for p := 0; p < 20_000; p++ {
		x.Append(int32(rng.Intn(32)), int32(rng.Intn(512)), int32(rng.Intn(32)), 1)
	}
	x.Dedup()
	csf, err := spblock.BuildCSF(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cachesim.MeasureTraffic(cachesim.POWER8(), func(h *cachesim.Hierarchy) error {
			return cachesim.TraceSPLATT(h, cachesim.Options{Rank: 64}, csf)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// Strip packing: rank strips always run on the Sec. V-B "stacked
// strips" rearrangement. The unpacked ablation lives in the cache
// simulator (cachesim.Options.NoStripPacking), where its conflict
// misses are counted.
func BenchmarkAblationStripPackingOn(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: 32, Workers: 1})
}

// Register blocking ablation: full-width register-blocked kernel
// (RankBlockCols=0 — registers, no strips) vs the accumulator-array
// SPLATT baseline isolates the load-pressure effect of Table I type 3.
func BenchmarkAblationRegisterBlocking(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: 0, Workers: 1})
}

// Parallel scaling of the slice-sharing scheme (bounded by the host's
// single core, but exercises the work-sharing machinery).
func BenchmarkParallelSPLATT4Workers(b *testing.B) {
	benchKernel(b, spblock.Plan{Method: spblock.MethodSPLATT, Workers: 4})
}

func BenchmarkTuningStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TuningTable(bench.Quick(), 64, []string{"Poisson2"}); err != nil {
			b.Fatal(err)
		}
	}
}
