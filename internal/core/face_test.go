package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spblock/internal/core"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/tensor"
)

// These tests run core.Plan's kernels through NewEngine, which builds
// them from Plan.Options.

// mttkrp is the one-shot mode-1 product out = X₍₁₎ · (B ⊙ C) under
// plan.
func mttkrp(x *tensor.COO, b, c, out *la.Matrix, plan core.Plan) error {
	e, err := core.NewEngine(x, plan, 0)
	if err != nil {
		return err
	}
	return e.Run(0, []*la.Matrix{nil, b, c}, out)
}

// allPlans enumerates every kernel configuration worth testing against
// the oracle for a given tensor shape.
func allPlans(dims tensor.Dims) []core.Plan {
	plans := []core.Plan{
		{Method: core.MethodCOO},
		{Method: core.MethodSPLATT, Workers: 1},
		{Method: core.MethodSPLATT, Workers: 4},
		{Method: core.MethodRankB, RankBlockCols: 16, Workers: 1},
		{Method: core.MethodRankB, RankBlockCols: 32, Workers: 4},
		{Method: core.MethodRankB, RankBlockCols: 0, Workers: 1}, // whole rank
	}
	grids := [][3]int{
		{1, 1, 1},
		{2, 2, 2},
		{1, 3, 1},
		{4, 1, 2},
	}
	for _, g := range grids {
		ok := g[0] <= dims[0] && g[1] <= dims[1] && g[2] <= dims[2]
		if !ok {
			continue
		}
		plans = append(plans,
			core.Plan{Method: core.MethodMB, Grid: g, Workers: 2},
			core.Plan{Method: core.MethodMBRankB, Grid: g, RankBlockCols: 16, Workers: 2},
		)
	}
	return plans
}

func TestAllKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	dims := tensor.Dims{13, 11, 9}
	x := core.RandCOO(rng, dims, 250)
	// The paper's analysis spans ranks 16..2048; we cover the odd and
	// sub-register-width cases that stress the tail paths too.
	for _, r := range []int{1, 3, 8, 16, 17, 31, 33, 64} {
		b := core.RandMatrix(rng, dims[1], r)
		c := core.RandMatrix(rng, dims[2], r)
		want := la.NewMatrix(dims[0], r)
		if err := core.Reference(x, b, c, want); err != nil {
			t.Fatal(err)
		}
		for _, plan := range allPlans(dims) {
			got := la.NewMatrix(dims[0], r)
			if err := mttkrp(x, b, c, got, plan); err != nil {
				t.Fatalf("rank %d, %v: %v", r, plan, err)
			}
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("rank %d, %v: differs from oracle by %v", r, plan, d)
			}
		}
	}
}

func TestKernelsOnPaperExample(t *testing.T) {
	// Figure 1a tensor with hand-computed MTTKRP at rank 2.
	x := tensor.NewCOO(tensor.Dims{3, 3, 3}, 7)
	x.Append(0, 0, 0, 5)
	x.Append(0, 1, 1, 3)
	x.Append(0, 1, 2, 1)
	x.Append(1, 0, 2, 2)
	x.Append(1, 1, 1, 9)
	x.Append(1, 2, 2, 7)
	x.Append(2, 0, 0, 9)
	b := la.NewMatrix(3, 2)
	c := la.NewMatrix(3, 2)
	b.FillFunc(func(i, j int) float64 { return float64(i + 1) })        // rows: 1,2,3
	c.FillFunc(func(i, j int) float64 { return float64(10 * (i + 1)) }) // rows: 10,20,30
	// A[0] = 5*1*10 + 3*2*20 + 1*2*30 = 50+120+60 = 230 (per column)
	// A[1] = 2*1*30 + 9*2*20 + 7*3*30 = 60+360+630 = 1050
	// A[2] = 9*1*10 = 90
	want := [][2]float64{{230, 230}, {1050, 1050}, {90, 90}}
	for _, plan := range allPlans(x.Dims) {
		out := la.NewMatrix(3, 2)
		if err := mttkrp(x, b, c, out, plan); err != nil {
			t.Fatal(err)
		}
		for i, row := range want {
			for q := 0; q < 2; q++ {
				if got := out.At(i, q); got != row[q] {
					t.Fatalf("%v: A[%d][%d] = %v, want %v", plan, i, q, got, row[q])
				}
			}
		}
	}
}

func TestEmptyTensor(t *testing.T) {
	x := tensor.NewCOO(tensor.Dims{4, 4, 4}, 0)
	b := la.NewMatrix(4, 8)
	c := la.NewMatrix(4, 8)
	for _, plan := range allPlans(x.Dims) {
		out := la.NewMatrix(4, 8)
		out.FillFunc(func(i, j int) float64 { return 1 }) // must be zeroed by Run
		if err := mttkrp(x, b, c, out, plan); err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		if out.FrobeniusNorm() != 0 {
			t.Fatalf("%v: empty tensor produced nonzero output", plan)
		}
	}
}

func TestOperandValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := core.RandCOO(rng, tensor.Dims{4, 5, 6}, 10)
	ok := func() (b, c, out *la.Matrix) {
		return la.NewMatrix(5, 8), la.NewMatrix(6, 8), la.NewMatrix(4, 8)
	}
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, c, out := ok()
	if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
		t.Fatalf("valid operands rejected: %v", err)
	}
	cases := []func() (x, y, z *la.Matrix){
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { _, c, o := ok(); return la.NewMatrix(4, 8), c, o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, _, o := ok(); return b, la.NewMatrix(5, 8), o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, _ := ok(); return b, c, la.NewMatrix(3, 8) },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { _, c, o := ok(); return la.NewMatrix(5, 4), c, o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, _ := ok(); return b, c, la.NewMatrix(4, 4) },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { _, c, o := ok(); return nil, c, o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) {
			return la.NewMatrix(5, 0), la.NewMatrix(6, 0), la.NewMatrix(4, 0)
		},
	}
	for n, mk := range cases {
		bb, cc, oo := mk()
		if err := e.Run(0, []*la.Matrix{nil, bb, cc}, oo); err == nil {
			t.Fatalf("case %d: invalid operands accepted", n)
		}
	}
	if err := e.Run(3, []*la.Matrix{nil, b, c}, out); err == nil {
		t.Fatal("mode 3 accepted")
	}
}

// TestNewExecutorErrors covers plan and tensor validation at build
// time. The executors clamp each grid entry to [1, dim], so
// out-of-range grids build, while a grid that stays too fine after
// clamping is refused by the block builder.
func TestNewExecutorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := core.RandCOO(rng, tensor.Dims{4, 4, 4}, 10)
	if _, err := core.NewEngine(x, core.Plan{Method: core.Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, grid := range [][3]int{{0, 1, 1}, {9, 1, 1}} {
		if _, err := core.NewEngine(x, core.Plan{Method: core.MethodMB, Grid: grid}); err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
	}
	// A grid within every mode length can still ask for millions of
	// blocks; the builder caps the count instead of allocating them.
	wide := tensor.NewCOO(tensor.Dims{4096, 2048, 1}, 1)
	wide.Append(0, 0, 0, 1)
	if _, err := core.NewEngine(wide, core.Plan{Method: core.MethodMB, Grid: [3]int{4096, 2048, 1}}, 0); err == nil {
		t.Fatal("8M-block grid accepted")
	}
	if _, err := core.NewEngine(x, core.Plan{Method: core.MethodRankB, RankBlockCols: -1}); err == nil {
		t.Fatal("negative rank block accepted")
	}
	bad := tensor.NewCOO(tensor.Dims{2, 2, 2}, 0)
	bad.Append(7, 0, 0, 1)
	if _, err := core.NewEngine(bad, core.Plan{Method: core.MethodSPLATT}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestRunIsRepeatable(t *testing.T) {
	// An executor is meant to be reused across ALS iterations: Run must
	// zero the output and produce identical results every call.
	rng := rand.New(rand.NewSource(3))
	x := core.RandCOO(rng, tensor.Dims{10, 10, 10}, 100)
	for _, plan := range []core.Plan{
		{Method: core.MethodCOO, Workers: 3},
		{Method: core.MethodSPLATT},
		{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16},
	} {
		e, err := core.NewEngine(x, plan)
		if err != nil {
			t.Fatal(err)
		}
		f := []*la.Matrix{core.RandMatrix(rng, 10, 17), core.RandMatrix(rng, 10, 17), core.RandMatrix(rng, 10, 17)}
		for n := 0; n < 3; n++ {
			out1 := la.NewMatrix(10, 17)
			out2 := la.NewMatrix(10, 17)
			if err := e.Run(n, f, out1); err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ { // the second run overwrites a dirty out2
				if err := e.Run(n, f, out2); err != nil {
					t.Fatal(err)
				}
			}
			if d := out1.MaxAbsDiff(out2); d != 0 {
				t.Fatalf("%v mode %d: repeated runs differ by %v", plan, n, d)
			}
		}
	}
}

func TestMTTKRPModeEquivalence(t *testing.T) {
	// The mode-2 product agrees with a direct contraction
	// B_out[j] = Σ_{i,k} X[i,j,k] · A[i] .* C[k]: every mode runs on the
	// same kernel family, rooted at its own mode.
	rng := rand.New(rand.NewSource(7))
	dims := tensor.Dims{6, 7, 8}
	x := core.RandCOO(rng, dims, 120)
	r := 16
	a := core.RandMatrix(rng, dims[0], r)
	c := core.RandMatrix(rng, dims[2], r)
	want := la.NewMatrix(dims[1], r)
	for p := 0; p < x.NNZ(); p++ {
		arow := a.Row(int(x.I[p]))
		crow := c.Row(int(x.K[p]))
		orow := want.Row(int(x.J[p]))
		for q := 0; q < r; q++ {
			orow[q] += x.Val[p] * arow[q] * crow[q]
		}
	}
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(dims[1], r)
	if err := e.Run(1, []*la.Matrix{a, nil, c}, got); err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("mode-2 product differs by %v", d)
	}
}

// Property: for random tensors, shapes and grids, the blocked kernel
// agrees with the sequential SPLATT kernel exactly (blocking reorders
// only across fibers, and fiber epilogues are order-independent sums).
func TestQuickBlockedMatchesSPLATT(t *testing.T) {
	f := func(seed int64, g0, g1, g2 uint8, r uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := tensor.Dims{8, 8, 8}
		x := core.RandCOO(rng, dims, 150)
		rank := int(r%24) + 1
		b := core.RandMatrix(rng, dims[1], rank)
		c := core.RandMatrix(rng, dims[2], rank)
		grid := [3]int{int(g0%4) + 1, int(g1%4) + 1, int(g2%4) + 1}

		want := la.NewMatrix(dims[0], rank)
		if err := mttkrp(x, b, c, want, core.Plan{Method: core.MethodSPLATT, Workers: 1}); err != nil {
			return false
		}
		got := la.NewMatrix(dims[0], rank)
		if err := mttkrp(x, b, c, got, core.Plan{Method: core.MethodMBRankB, Grid: grid, RankBlockCols: 16, Workers: 3}); err != nil {
			return false
		}
		return got.MaxAbsDiff(want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCOOPrivatization(t *testing.T) {
	// The privatised parallel COO kernel must agree with the sequential
	// one even when ranges split mid-row (output rows are shared).
	rng := rand.New(rand.NewSource(30))
	dims := tensor.Dims{4, 50, 50} // few rows: heavy write sharing
	x := core.RandCOO(rng, dims, 2000)
	b := core.RandMatrix(rng, dims[1], 24)
	c := core.RandMatrix(rng, dims[2], 24)
	want := la.NewMatrix(dims[0], 24)
	if err := mttkrp(x, b, c, want, core.Plan{Method: core.MethodCOO, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 100} {
		got := la.NewMatrix(dims[0], 24)
		if err := mttkrp(x, b, c, got, core.Plan{Method: core.MethodCOO, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("workers=%d: differs by %v", workers, d)
		}
	}
}

func TestAutotuneEndToEnd(t *testing.T) {
	// Real wall-clock autotune on a small tensor: we only assert
	// structural validity of the outcome and that the tuned plan still
	// computes correct results (timing noise makes the chosen sizes
	// machine-dependent by design).
	rng := rand.New(rand.NewSource(8))
	x := core.RandCOO(rng, tensor.Dims{32, 48, 24}, 2000)
	rank := 32
	for _, method := range []core.Method{core.MethodRankB, core.MethodMB, core.MethodMBRankB} {
		plan, trials, err := core.Autotune(x, rank, method, core.AutotuneOptions{Trials: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if plan.Method != method {
			t.Fatalf("method mangled: %v -> %v", method, plan.Method)
		}
		for m := 0; m < 3; m++ {
			if plan.Grid[m] < 1 || plan.Grid[m] > x.Dims[m] {
				t.Fatalf("%v: grid %v out of range", method, plan.Grid)
			}
		}
		if plan.RankBlockCols < 0 || plan.RankBlockCols > rank {
			t.Fatalf("%v: bs = %d out of range", method, plan.RankBlockCols)
		}
		if bs := plan.RankBlockCols; bs != 0 && !slices.Contains(kernel.StripCandidates(rank), bs) {
			t.Fatalf("%v: bs = %d not a registry strip candidate", method, bs)
		}
		if method != core.MethodSPLATT && len(trials) == 0 {
			t.Fatalf("%v: empty trial log", method)
		}
		// Tuned plan must still be correct.
		b := core.RandMatrix(rng, x.Dims[1], rank)
		c := core.RandMatrix(rng, x.Dims[2], rank)
		want := la.NewMatrix(x.Dims[0], rank)
		if err := core.Reference(x, b, c, want); err != nil {
			t.Fatal(err)
		}
		got := la.NewMatrix(x.Dims[0], rank)
		if err := mttkrp(x, b, c, got, plan); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("%v: tuned plan wrong by %v", method, d)
		}
	}
}
