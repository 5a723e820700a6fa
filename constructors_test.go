package spblock_test

import (
	"math/rand"
	"testing"

	"spblock"
)

func demoTensorN(rng *rand.Rand, dims []int, nnz int) *spblock.TensorN {
	t := spblock.NewTensorN(dims, nnz)
	coords := make([]int32, len(dims))
	for p := 0; p < nnz; p++ {
		for m, d := range dims {
			coords[m] = int32(rng.Intn(d))
		}
		t.Append(coords, rng.Float64()+0.1)
	}
	if _, err := t.Dedup(); err != nil {
		panic(err)
	}
	return t
}

// TestFacadeConstructorValidation pins the validation parity across the
// executor constructors and the one-shot MTTKRP and MTTKRPN: negative
// Workers and negative RankBlockCols are rejected everywhere —
// including NewMultiExecutorN at order 3, and MTTKRPN, which used to
// ignore its options' validity.
func TestFacadeConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x3 := demoTensor(rng, spblock.Dims{8, 8, 8}, 60)
	n3 := demoTensorN(rng, []int{8, 8, 8}, 60)
	n4 := demoTensorN(rng, []int{6, 5, 4, 3}, 60)
	csf4, err := spblock.BuildCSFN(n4, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rank = 4
	b3, c3, out3 := spblock.NewMatrix(8, rank), spblock.NewMatrix(8, rank), spblock.NewMatrix(8, rank)
	factors4 := make([]*spblock.Matrix, len(n4.Dims))
	for m := 1; m < len(n4.Dims); m++ {
		factors4[m] = spblock.NewMatrix(n4.Dims[m], rank)
	}
	oneShot := func(opts spblock.OptionsN) func() error {
		return func() error {
			return spblock.MTTKRPN(csf4, factors4, spblock.NewMatrix(n4.Dims[0], rank), opts)
		}
	}

	cases := []struct {
		name    string
		build   func() error
		wantErr bool
	}{
		{"one-shot negative workers", func() error {
			return spblock.MTTKRP(x3, b3, c3, out3, spblock.Plan{Method: spblock.MethodSPLATT, Workers: -1})
		}, true},
		{"one-shot negative rank block", func() error {
			return spblock.MTTKRP(x3, b3, c3, out3, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: -16})
		}, true},
		{"one-shot valid", func() error {
			return spblock.MTTKRP(x3, b3, c3, out3, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: 16, Workers: 1})
		}, false},
		{"multi negative workers", func() error {
			_, err := spblock.NewMultiExecutor(x3, spblock.Plan{Method: spblock.MethodSPLATT, Workers: -1})
			return err
		}, true},
		{"multi negative rank block", func() error {
			_, err := spblock.NewMultiExecutor(x3, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: -16})
			return err
		}, true},
		{"multi valid", func() error {
			_, err := spblock.NewMultiExecutor(x3, spblock.Plan{Method: spblock.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16, Workers: 1})
			return err
		}, false},
		{"nmode negative workers", func() error {
			_, err := spblock.NewExecutorN(n4, 0, spblock.OptionsN{Workers: -1})
			return err
		}, true},
		{"nmode negative rank block", func() error {
			_, err := spblock.NewExecutorN(n4, 0, spblock.OptionsN{RankBlockCols: -16})
			return err
		}, true},
		{"nmode bad mode", func() error {
			_, err := spblock.NewExecutorN(n4, 4, spblock.OptionsN{})
			return err
		}, true},
		{"nmode valid", func() error {
			_, err := spblock.NewExecutorN(n4, 0, spblock.OptionsN{RankBlockCols: 16, Workers: 1})
			return err
		}, false},
		{"nengine order-3 negative workers", func() error {
			_, err := spblock.NewMultiExecutorN(n3, spblock.OptionsN{Workers: -1})
			return err
		}, true},
		{"nengine order-3 negative rank block", func() error {
			_, err := spblock.NewMultiExecutorN(n3, spblock.OptionsN{RankBlockCols: -16})
			return err
		}, true},
		{"nengine order-3 valid", func() error {
			_, err := spblock.NewMultiExecutorN(n3, spblock.OptionsN{RankBlockCols: 16, Workers: 1})
			return err
		}, false},
		{"nengine generic negative workers", func() error {
			_, err := spblock.NewMultiExecutorN(n4, spblock.OptionsN{Workers: -1})
			return err
		}, true},
		{"nengine generic negative rank block", func() error {
			_, err := spblock.NewMultiExecutorN(n4, spblock.OptionsN{RankBlockCols: -16})
			return err
		}, true},
		{"nengine generic valid", func() error {
			_, err := spblock.NewMultiExecutorN(n4, spblock.OptionsN{RankBlockCols: 16, Workers: 1})
			return err
		}, false},
		{"one-shot negative workers", oneShot(spblock.OptionsN{Workers: -1}), true},
		{"one-shot negative rank block", oneShot(spblock.OptionsN{RankBlockCols: -4}), true},
		{"one-shot valid", oneShot(spblock.OptionsN{RankBlockCols: 2, Workers: 2}), false},
	}
	for _, tc := range cases {
		err := tc.build()
		if tc.wantErr && err == nil {
			t.Errorf("%s: constructor accepted invalid input", tc.name)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestFacadeKernelMetrics exercises the instrumentation layer through
// the facade: counters advance across Runs on both the order-3 and the
// generic order-N paths, and the derived report quantities are sane.
func TestFacadeKernelMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dims := spblock.Dims{16, 20, 12}
	x := demoTensor(rng, dims, 300)
	const rank = 32

	exec, err := spblock.NewMultiExecutor(x, spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: 16, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := spblock.NewMatrix(dims[1], rank)
	c := spblock.NewMatrix(dims[2], rank)
	out := spblock.NewMatrix(dims[0], rank)
	const reps = 3
	for i := 0; i < reps; i++ {
		if err := exec.Run(0, [3]*spblock.Matrix{nil, b, c}, out); err != nil {
			t.Fatal(err)
		}
	}
	met, err := exec.Metrics(0)
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap.Runs != reps {
		t.Fatalf("runs = %d, want %d", snap.Runs, reps)
	}
	// Two strips of 16 at rank 32: every structure walk happens twice.
	if want := int64(reps) * 2 * int64(x.NNZ()); snap.NNZ != want {
		t.Fatalf("nnz = %d, want %d (2 strips x %d reps x %d nonzeros)", snap.NNZ, want, reps, x.NNZ())
	}
	if snap.Strips != reps*2 {
		t.Fatalf("strips = %d, want %d", snap.Strips, reps*2)
	}
	if snap.BytesEst <= 0 || snap.WallNS <= 0 {
		t.Fatalf("degenerate snapshot: %+v", snap)
	}
	if snap.NsPerRun() <= 0 || snap.AchievedGBs() <= 0 {
		t.Fatalf("derived quantities degenerate: ns/run=%d GB/s=%v", snap.NsPerRun(), snap.AchievedGBs())
	}
	if im := snap.Imbalance(); im < 1 {
		t.Fatalf("imbalance %v < 1", im)
	}
	met.Reset()
	if s := met.Snapshot(); s.Runs != 0 || s.NNZ != 0 || s.WallNS != 0 {
		t.Fatalf("reset left state: %+v", s)
	}

	// Order-4 generic path through the N-mode engine.
	n4 := demoTensorN(rng, []int{6, 5, 4, 3}, 150)
	me, err := spblock.NewMultiExecutorN(n4, spblock.OptionsN{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	factors := make([]*spblock.Matrix, 4)
	for m, d := range n4.Dims {
		factors[m] = spblock.NewMatrix(d, 8)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
	}
	out4 := spblock.NewMatrix(n4.Dims[0], 8)
	if err := me.Run(0, factors, out4); err != nil {
		t.Fatal(err)
	}
	mc, err := me.Metrics(0)
	if err != nil {
		t.Fatal(err)
	}
	s4 := mc.Snapshot()
	if s4.Runs != 1 || s4.NNZ != int64(n4.NNZ()) {
		t.Fatalf("order-4 snapshot: %+v (nnz want %d)", s4, n4.NNZ())
	}
	if _, err := me.Metrics(7); err == nil {
		t.Fatal("out-of-range mode accepted")
	}

	// Order 3 exposes the same accessor.
	n3 := demoTensorN(rng, []int{8, 8, 8}, 100)
	me3, err := spblock.NewMultiExecutorN(n3, spblock.OptionsN{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f3 := make([]*spblock.Matrix, 3)
	for m, d := range n3.Dims {
		f3[m] = spblock.NewMatrix(d, 8)
	}
	out3 := spblock.NewMatrix(n3.Dims[0], 8)
	if err := me3.Run(0, f3, out3); err != nil {
		t.Fatal(err)
	}
	mc3, err := me3.Metrics(0)
	if err != nil {
		t.Fatal(err)
	}
	if s := mc3.Snapshot(); s.Runs != 1 {
		t.Fatalf("order-3 snapshot runs = %d", s.Runs)
	}
}
