package spblock_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"spblock"
)

func demoTensor(rng *rand.Rand, dims spblock.Dims, nnz int) *spblock.Tensor {
	t := spblock.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append(
			int32(rng.Intn(dims[0])),
			int32(rng.Intn(dims[1])),
			int32(rng.Intn(dims[2])),
			rng.Float64()+0.1,
		)
	}
	t.Dedup()
	return t
}

func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := spblock.Dims{20, 24, 16}
	x := demoTensor(rng, dims, 400)
	rank := 32

	b := spblock.NewMatrix(dims[1], rank)
	c := spblock.NewMatrix(dims[2], rank)
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	for i := range c.Data {
		c.Data[i] = rng.Float64()
	}

	// Baseline through the facade.
	base := spblock.NewMatrix(dims[0], rank)
	if err := spblock.MTTKRP(x, b, c, base, spblock.Plan{Method: spblock.MethodSPLATT}); err != nil {
		t.Fatal(err)
	}

	// Autotuned blocked executor agrees.
	plan, trials, err := spblock.Autotune(x, rank, spblock.MethodMBRankB, spblock.AutotuneOptions{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("no autotune trials")
	}
	exec, err := spblock.NewMultiExecutor(x, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := spblock.NewMatrix(dims[0], rank)
	if err := exec.Run(0, [3]*spblock.Matrix{nil, b, c}, out); err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(base); d > 1e-9 {
		t.Fatalf("tuned kernel differs by %v", d)
	}

	// Distributed agrees too.
	dres, err := spblock.DistMTTKRP(x, b, c, spblock.DistConfig{
		Ranks: 4, RankParts: 2,
		Plan:  spblock.Plan{Method: spblock.MethodSPLATT, Workers: 1},
		Model: spblock.DefaultCluster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := dres.Out.MaxAbsDiff(base); d > 1e-9 {
		t.Fatalf("distributed differs by %v", d)
	}
}

func TestFacadeTensorIO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := demoTensor(rng, spblock.Dims{5, 5, 5}, 30)
	var buf bytes.Buffer
	if err := spblock.WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	back, err := spblock.ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() || back.Dims != x.Dims {
		t.Fatal("facade round trip changed tensor")
	}
	csf, err := spblock.BuildCSF(x)
	if err != nil {
		t.Fatal(err)
	}
	if csf.NNZ() != x.NNZ() {
		t.Fatal("CSF lost nonzeros")
	}
	if spblock.ComputeStats(x).NNZ != x.NNZ() {
		t.Fatal("stats mismatch")
	}
}

func TestFacadeCPALS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := demoTensor(rng, spblock.Dims{10, 10, 10}, 200)
	res, err := spblock.CPALS(x, spblock.CPOptions{Rank: 4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() <= 0 || res.Iters == 0 {
		t.Fatalf("decomposition did not progress: fit=%v iters=%d", res.Fit(), res.Iters)
	}
}

func TestFacadeDatasets(t *testing.T) {
	names := spblock.Datasets()
	if len(names) != 7 {
		t.Fatalf("datasets = %v", names)
	}
	spec, err := spblock.LookupDataset("Netflix")
	if err != nil {
		t.Fatal(err)
	}
	small, err := spec.GenerateAt(spblock.Dims{32, 32, 32}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.NNZ() == 0 {
		t.Fatal("empty generated dataset")
	}
}

func TestFacadeFileIOAndBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := demoTensor(rng, spblock.Dims{8, 8, 8}, 60)
	path := t.TempDir() + "/x.tns"
	if err := spblock.SaveTNS(path, x); err != nil {
		t.Fatal(err)
	}
	back, err := spblock.LoadTNS(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() {
		t.Fatal("file round trip lost entries")
	}
	bt, err := spblock.BuildBlocked(x, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if bt.NNZ() != x.NNZ() {
		t.Fatal("blocked tensor lost entries")
	}
}

func TestFacadeDistEngineAndCPALS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := demoTensor(rng, spblock.Dims{10, 10, 10}, 250)
	cfg := spblock.DistConfig{
		Ranks: 2,
		Plan:  spblock.Plan{Method: spblock.MethodSPLATT, Workers: 1},
		Model: spblock.DefaultCluster(),
	}
	eng, err := spblock.NewDistEngine(x, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := spblock.NewMatrix(10, 8)
	c := spblock.NewMatrix(10, 8)
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	for i := range c.Data {
		c.Data[i] = rng.Float64()
	}
	res, err := eng.Run(b, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.FrobeniusNorm() == 0 {
		t.Fatal("distributed MTTKRP produced nothing")
	}
	cp, err := spblock.DistCPALS(x, cfg, spblock.DistCPOptions{Rank: 4, MaxIters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Iters == 0 || cp.Fit() <= 0 {
		t.Fatalf("distributed CP-ALS did not progress: %+v", cp)
	}
}

func TestFacadeNMode(t *testing.T) {
	dims := []int{6, 5, 4, 3}
	x := spblock.NewTensorN(dims, 0)
	rng := rand.New(rand.NewSource(6))
	coords := make([]int32, 4)
	for p := 0; p < 200; p++ {
		for m, d := range dims {
			coords[m] = int32(rng.Intn(d))
		}
		x.Append(coords, rng.Float64())
	}
	if _, err := x.Dedup(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x4.tns"
	if err := spblock.SaveTNSN(path, x); err != nil {
		t.Fatal(err)
	}
	back, err := spblock.LoadTNSN(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() {
		t.Fatal("order-4 round trip lost entries")
	}
	csf, err := spblock.BuildCSFN(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	factors := make([]*spblock.Matrix, 4)
	for m, d := range dims {
		factors[m] = spblock.NewMatrix(d, 8)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
	}
	out := spblock.NewMatrix(dims[0], 8)
	if err := spblock.MTTKRPN(csf, factors, out, spblock.OptionsN{RankBlockCols: 16}); err != nil {
		t.Fatal(err)
	}
	if out.FrobeniusNorm() == 0 {
		t.Fatal("order-4 MTTKRP produced nothing")
	}
	res, err := spblock.CPALSN(x, spblock.CPNOptions{Rank: 3, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters == 0 {
		t.Fatal("order-4 CP-ALS did not run")
	}
}

func TestFacadeCPAPR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := spblock.NewTensor(spblock.Dims{12, 12, 12}, 300)
	for p := 0; p < 300; p++ {
		x.Append(int32(rng.Intn(12)), int32(rng.Intn(12)), int32(rng.Intn(12)),
			float64(rng.Intn(5)+1))
	}
	x.Dedup()
	res, err := spblock.CPAPR(x, spblock.APROptions{Rank: 3, MaxIters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KL) < 2 || !(res.FinalKL() < res.KL[0]) {
		t.Fatalf("KL trajectory broken: %v", res.KL)
	}
}

func TestFacadeMultiExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := spblock.Dims{15, 12, 10}
	x := demoTensor(rng, dims, 350)
	const rank = 16

	factors := [3]*spblock.Matrix{}
	for n := 0; n < 3; n++ {
		m := spblock.NewMatrix(dims[n], rank)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		factors[n] = m
	}

	me, err := spblock.NewMultiExecutor(x, spblock.Plan{
		Method: spblock.MethodMBRankB, Grid: [3]int{3, 2, 2}, RankBlockCols: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every mode product must agree with a one-shot COO MTTKRP on an
	// explicitly permuted tensor.
	perms := [3][3]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}}
	operands := [3][2]int{{1, 2}, {0, 2}, {0, 1}}
	for n := 0; n < 3; n++ {
		pt, err := x.PermuteModes(perms[n])
		if err != nil {
			t.Fatal(err)
		}
		want := spblock.NewMatrix(dims[n], rank)
		if err := spblock.MTTKRP(pt, factors[operands[n][0]], factors[operands[n][1]], want,
			spblock.Plan{Method: spblock.MethodCOO}); err != nil {
			t.Fatal(err)
		}
		got := spblock.NewMatrix(dims[n], rank)
		for rep := 0; rep < 2; rep++ { // second run reuses the workspace
			if err := me.Run(n, factors, got); err != nil {
				t.Fatal(err)
			}
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("mode %d differs from COO reference by %v", n, d)
		}
	}
	if _, err := me.Metrics(0); err != nil {
		t.Fatal(err)
	}
	if me.MemoryBytes() <= 0 {
		t.Fatal("built executors report no memory")
	}
}

// TestRunReleasesOperands: a cached executor outlives the jobs that
// run it, so after Run neither MultiExecutor's operand buffer nor the
// engine beneath it may keep the caller's factor and output matrices
// reachable — sequential or parallel, stripped or not. Each operand
// carries a finalizer; once the test drops its own references, a
// collection must finalize all three.
func TestRunReleasesOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := spblock.Dims{16, 20, 12}
	x := demoTensor(rng, dims, 800)
	const rank = 24
	randMatrix := func(rows int) *spblock.Matrix {
		m := spblock.NewMatrix(rows, rank)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	for _, plan := range []spblock.Plan{
		{Method: spblock.MethodCOO, Workers: 2},
		{Method: spblock.MethodSPLATT, Workers: 1},
		{Method: spblock.MethodMB, Grid: [3]int{2, 2, 2}, Workers: 2},
		{Method: spblock.MethodRankB, RankBlockCols: 16, Workers: 2},
		{Method: spblock.MethodMBRankB, Grid: [3]int{2, 1, 2}, RankBlockCols: 8, Workers: 1},
	} {
		e, err := spblock.NewMultiExecutor(x, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		freed := make(chan struct{}, 3)
		run := func() {
			b, c, out := randMatrix(dims[1]), randMatrix(dims[2]), spblock.NewMatrix(dims[0], rank)
			for _, m := range []*spblock.Matrix{b, c, out} {
				runtime.SetFinalizer(m, func(*spblock.Matrix) { freed <- struct{}{} })
			}
			if err := e.Run(0, [3]*spblock.Matrix{nil, b, c}, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		for n, deadline := 0, time.Now().Add(5*time.Second); n < 3; {
			runtime.GC()
			select {
			case <-freed:
				n++
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("%v: only %d of 3 operands were released after Run", plan, n)
				}
			}
		}
		runtime.KeepAlive(e)
	}
}

// cpalsPlan runs the facade CP-ALS with plan's kernel.
func cpalsPlan(x *spblock.Tensor, plan spblock.Plan, opts spblock.CPOptions) (*spblock.CPResult, error) {
	kernel, err := plan.Options()
	if err != nil {
		return nil, err
	}
	opts.Kernel = kernel
	return spblock.CPALS(x, opts)
}
