package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"spblock/internal/la"
	"spblock/internal/sched"
	"spblock/internal/tensor"
)

func randMatrix(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randCOO(rng *rand.Rand, dims tensor.Dims, nnz int) *tensor.COO {
	t := tensor.NewCOO(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append(
			tensor.Index(rng.Intn(dims[0])),
			tensor.Index(rng.Intn(dims[1])),
			tensor.Index(rng.Intn(dims[2])),
			rng.NormFloat64(),
		)
	}
	t.Dedup()
	return t
}

// allPlans enumerates every kernel configuration worth testing against
// the oracle for a given tensor shape.
func allPlans(dims tensor.Dims) []Plan {
	plans := []Plan{
		{Method: MethodCOO},
		{Method: MethodSPLATT, Workers: 1},
		{Method: MethodSPLATT, Workers: 4},
		{Method: MethodRankB, RankBlockCols: 16, Workers: 1},
		{Method: MethodRankB, RankBlockCols: 32, Workers: 4},
		{Method: MethodRankB, RankBlockCols: 0, Workers: 1}, // whole rank
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
			Plan{Method: MethodMB, Grid: g, Workers: 2},
			Plan{Method: MethodMBRankB, Grid: g, RankBlockCols: 16, Workers: 2},
		)
	}
	return plans
}

func TestAllKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	dims := tensor.Dims{13, 11, 9}
	x := randCOO(rng, dims, 250)
	// The paper's analysis spans ranks 16..2048; we cover the odd and
	// sub-register-width cases that stress the tail paths too.
	for _, r := range []int{1, 3, 8, 16, 17, 31, 33, 64} {
		b := randMatrix(rng, dims[1], r)
		c := randMatrix(rng, dims[2], r)
		want := la.NewMatrix(dims[0], r)
		if err := Reference(x, b, c, want); err != nil {
			t.Fatal(err)
		}
		for _, plan := range allPlans(dims) {
			got := la.NewMatrix(dims[0], r)
			if err := MTTKRP(x, b, c, got, plan); err != nil {
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
		if err := MTTKRP(x, b, c, out, plan); err != nil {
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
		if err := MTTKRP(x, b, c, out, plan); err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		if out.FrobeniusNorm() != 0 {
			t.Fatalf("%v: empty tensor produced nonzero output", plan)
		}
	}
}

func TestOperandValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randCOO(rng, tensor.Dims{4, 5, 6}, 10)
	ok := func() (b, c, out *la.Matrix) {
		return la.NewMatrix(5, 8), la.NewMatrix(6, 8), la.NewMatrix(4, 8)
	}
	e, err := NewExecutor(x, Plan{Method: MethodSPLATT})
	if err != nil {
		t.Fatal(err)
	}
	b, c, out := ok()
	if err := e.Run(b, c, out); err != nil {
		t.Fatalf("valid operands rejected: %v", err)
	}
	cases := []func() (x, y, z *la.Matrix){
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, o := ok(); _ = b; return la.NewMatrix(4, 8), c, o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, o := ok(); _ = c; return b, la.NewMatrix(5, 8), o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, o := ok(); _ = o; return b, c, la.NewMatrix(3, 8) },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, o := ok(); _ = b; return la.NewMatrix(5, 4), c, o },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) { b, c, o := ok(); _ = o; return b, c, la.NewMatrix(4, 4) },
		func() (*la.Matrix, *la.Matrix, *la.Matrix) {
			return la.NewMatrix(5, 0), la.NewMatrix(6, 0), la.NewMatrix(4, 0)
		},
	}
	for n, mk := range cases {
		bb, cc, oo := mk()
		if err := e.Run(bb, cc, oo); err == nil {
			t.Fatalf("case %d: invalid operands accepted", n)
		}
	}
}

func TestNewExecutorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randCOO(rng, tensor.Dims{4, 4, 4}, 10)
	if _, err := NewExecutor(x, Plan{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := NewExecutor(x, Plan{Method: MethodMB, Grid: [3]int{0, 1, 1}}); err == nil {
		t.Fatal("zero grid accepted")
	}
	if _, err := NewExecutor(x, Plan{Method: MethodMB, Grid: [3]int{9, 1, 1}}); err == nil {
		t.Fatal("grid larger than mode accepted")
	}
	// A grid within every mode length can still ask for millions of
	// blocks; the builder caps the count instead of allocating them.
	wide := tensor.NewCOO(tensor.Dims{4096, 2048, 1}, 1)
	wide.Append(0, 0, 0, 1)
	if _, err := NewExecutor(wide, Plan{Method: MethodMB, Grid: [3]int{4096, 2048, 1}}); err == nil {
		t.Fatal("8M-block grid accepted")
	}
	if _, err := NewExecutor(x, Plan{Method: MethodRankB, RankBlockCols: -1}); err == nil {
		t.Fatal("negative rank block accepted")
	}
	bad := tensor.NewCOO(tensor.Dims{2, 2, 2}, 0)
	bad.Append(7, 0, 0, 1)
	if _, err := NewExecutor(bad, Plan{Method: MethodSPLATT}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestRunIsRepeatable(t *testing.T) {
	// An executor is meant to be reused across ALS iterations: Run must
	// zero the output and produce identical results every call.
	rng := rand.New(rand.NewSource(3))
	x := randCOO(rng, tensor.Dims{10, 10, 10}, 100)
	b := randMatrix(rng, 10, 17)
	c := randMatrix(rng, 10, 17)
	e, err := NewExecutor(x, Plan{Method: MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	out1 := la.NewMatrix(10, 17)
	out2 := la.NewMatrix(10, 17)
	if err := e.Run(b, c, out1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(b, c, out2); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(b, c, out2); err != nil { // third run over dirty out2
		t.Fatal(err)
	}
	if d := out1.MaxAbsDiff(out2); d != 0 {
		t.Fatalf("repeated runs differ by %v", d)
	}
}

func TestMethodAndPlanStrings(t *testing.T) {
	for m, want := range map[Method]string{
		MethodCOO: "COO", MethodSPLATT: "SPLATT", MethodMB: "MB",
		MethodRankB: "RankB", MethodMBRankB: "MB+RankB",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method should render")
	}
	p := Plan{Method: MethodMBRankB, Grid: [3]int{2, 3, 4}, RankBlockCols: 32}
	if s := p.String(); !strings.Contains(s, "2x3x4") || !strings.Contains(s, "bs=32") {
		t.Fatalf("Plan.String = %q", s)
	}
}

// TestSliceShares covers the slice partition the executors now obtain
// through sched.Shares with the CSF nnz-cumulative weight function —
// the same invariants the old in-package sliceShares guaranteed.
func TestSliceShares(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randCOO(rng, tensor.Dims{50, 20, 20}, 2000)
	csf, err := tensor.BuildCSF(x)
	if err != nil {
		t.Fatal(err)
	}
	cumOf := func(c *tensor.CSF) func(int) int64 {
		return func(i int) int64 { return int64(c.FiberPtr[c.SlicePtr[i+1]]) }
	}
	for _, workers := range []int{1, 2, 3, 7, 100} {
		shares := sched.Shares(csf.NumSlices(), workers, cumOf(csf))
		if len(shares) == 0 {
			t.Fatal("no shares")
		}
		// Coverage: contiguous, disjoint, spanning [0, numSlices).
		if shares[0][0] != 0 || shares[len(shares)-1][1] != csf.NumSlices() {
			t.Fatalf("workers=%d: shares %v do not span", workers, shares)
		}
		for s := 1; s < len(shares); s++ {
			if shares[s][0] != shares[s-1][1] {
				t.Fatalf("workers=%d: gap between shares %v", workers, shares)
			}
		}
		for _, sh := range shares {
			if sh[0] >= sh[1] {
				t.Fatalf("workers=%d: empty share %v", workers, sh)
			}
		}
		if len(shares) > workers {
			t.Fatalf("more shares than workers: %d > %d", len(shares), workers)
		}
	}
	// Empty tensor: no shares.
	emptyCSF, _ := tensor.BuildCSF(tensor.NewCOO(tensor.Dims{3, 3, 3}, 0))
	if s := sched.Shares(emptyCSF.NumSlices(), 4, cumOf(emptyCSF)); s != nil {
		t.Fatalf("empty tensor shares = %v", s)
	}
}

func TestBuildBlockedStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := tensor.Dims{12, 9, 15}
	x := randCOO(rng, dims, 300)
	bt, err := BuildBlocked(x, [3]int{3, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if bt.NNZ() != x.NNZ() {
		t.Fatalf("blocked nnz %d != %d", bt.NNZ(), x.NNZ())
	}
	if bt.BlockDims != [3]int{4, 3, 3} {
		t.Fatalf("block dims = %v", bt.BlockDims)
	}
	// Every nonzero lands in the block its coordinates dictate, with
	// valid CSF structure and sorted content.
	total := 0
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 3; bj++ {
			for bk := 0; bk < 5; bk++ {
				blk := bt.BlockAt(bi, bj, bk)
				if blk == nil {
					continue
				}
				if err := blk.Validate(); err != nil {
					t.Fatalf("block (%d,%d,%d): %v", bi, bj, bk, err)
				}
				back := blk.ToCOO()
				total += back.NNZ()
				for p := 0; p < back.NNZ(); p++ {
					if int(back.I[p])/4 != bi || int(back.J[p])/3 != bj || int(back.K[p])/3 != bk {
						t.Fatalf("entry (%d,%d,%d) in wrong block (%d,%d,%d)",
							back.I[p], back.J[p], back.K[p], bi, bj, bk)
					}
				}
			}
		}
	}
	if total != x.NNZ() {
		t.Fatalf("blocks hold %d nonzeros, tensor has %d", total, x.NNZ())
	}
	if bt.FactorAccessCounts() != [3]int{15, 15, 9} {
		t.Fatalf("factor access counts = %v", bt.FactorAccessCounts())
	}
}

// Each block is the SPLATT tree of exactly its own nonzeros — the same
// structure tensor.BuildCSF gives the block's sub-tensor — with every
// array exactly sized.
func TestBuildBlockedBlocksAreExactCSFs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randCOO(rng, tensor.Dims{13, 10, 11}, 900)
	bt, err := BuildBlocked(x, [3]int{3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for id, blk := range bt.Blocks {
		sub := tensor.NewCOO(x.Dims, 0)
		for p := 0; p < x.NNZ(); p++ {
			bi, bj, bk := int(x.I[p])/bt.BlockDims[0], int(x.J[p])/bt.BlockDims[1], int(x.K[p])/bt.BlockDims[2]
			if (bi*bt.Grid[1]+bj)*bt.Grid[2]+bk == id {
				sub.Append(x.I[p], x.J[p], x.K[p], x.Val[p])
			}
		}
		if blk == nil {
			if sub.NNZ() != 0 {
				t.Fatalf("block %d nil but holds %d nonzeros", id, sub.NNZ())
			}
			continue
		}
		want, err := tensor.BuildCSF(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(blk, want) {
			t.Fatalf("block %d differs from BuildCSF of its nonzeros", id)
		}
		for name, a := range map[string][]int32{
			"SliceID": blk.SliceID, "SlicePtr": blk.SlicePtr, "FiberK": blk.FiberK,
			"FiberPtr": blk.FiberPtr, "NzJ": blk.NzJ,
		} {
			if len(a) != cap(a) {
				t.Fatalf("block %d %s: len %d cap %d", id, name, len(a), cap(a))
			}
		}
		if len(blk.Val) != cap(blk.Val) {
			t.Fatalf("block %d Val: len %d cap %d", id, len(blk.Val), cap(blk.Val))
		}
	}
}

func TestBuildBlockedOverheadGrowsWithGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randCOO(rng, tensor.Dims{40, 40, 40}, 4000)
	flat, err := BuildBlocked(x, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := BuildBlocked(x, [3]int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if fine.MemoryBytes() <= flat.MemoryBytes() {
		t.Fatalf("fine grid memory %d not above flat %d — fiber splitting must cost",
			fine.MemoryBytes(), flat.MemoryBytes())
	}
	if flat.NumBlocks() != 1 {
		t.Fatalf("flat grid has %d blocks", flat.NumBlocks())
	}
}

func TestBuildBlockedDoesNotMutateInput(t *testing.T) {
	x := tensor.NewCOO(tensor.Dims{4, 4, 4}, 0)
	x.Append(3, 3, 3, 1)
	x.Append(0, 0, 0, 2) // unsorted
	if _, err := BuildBlocked(x, [3]int{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if x.I[0] != 3 {
		t.Fatal("BuildBlocked reordered the caller's tensor")
	}
}

func TestMTTKRPModeEquivalence(t *testing.T) {
	// Mode-2 MTTKRP on X equals mode-1 MTTKRP on X with modes permuted
	// (the identity the library relies on to serve all three modes).
	rng := rand.New(rand.NewSource(7))
	dims := tensor.Dims{6, 7, 8}
	x := randCOO(rng, dims, 120)
	r := 16
	a := randMatrix(rng, dims[0], r)
	c := randMatrix(rng, dims[2], r)

	// Direct mode-2 result via dense contraction oracle:
	// B_out[j] = Σ_{i,k} X[i,j,k] * A[i] .* C[k].
	want := la.NewMatrix(dims[1], r)
	for p := 0; p < x.NNZ(); p++ {
		arow := a.Row(int(x.I[p]))
		crow := c.Row(int(x.K[p]))
		orow := want.Row(int(x.J[p]))
		for q := 0; q < r; q++ {
			orow[q] += x.Val[p] * arow[q] * crow[q]
		}
	}

	perm, err := x.PermuteModes([3]int{1, 0, 2}) // (j, i, k)
	if err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(dims[1], r)
	if err := MTTKRP(perm, a, c, got, Plan{Method: MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16}); err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("mode-2 via permutation differs by %v", d)
	}
}

// Property: for random tensors, shapes and grids, the blocked kernel
// agrees with the sequential SPLATT kernel exactly (blocking reorders
// only across fibers, and fiber epilogues are order-independent sums).
func TestQuickBlockedMatchesSPLATT(t *testing.T) {
	f := func(seed int64, g0, g1, g2 uint8, r uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := tensor.Dims{8, 8, 8}
		x := randCOO(rng, dims, 150)
		rank := int(r%24) + 1
		b := randMatrix(rng, dims[1], rank)
		c := randMatrix(rng, dims[2], rank)
		grid := [3]int{int(g0%4) + 1, int(g1%4) + 1, int(g2%4) + 1}

		want := la.NewMatrix(dims[0], rank)
		if err := MTTKRP(x, b, c, want, Plan{Method: MethodSPLATT, Workers: 1}); err != nil {
			return false
		}
		got := la.NewMatrix(dims[0], rank)
		if err := MTTKRP(x, b, c, got, Plan{Method: MethodMBRankB, Grid: grid, RankBlockCols: 16, Workers: 3}); err != nil {
			return false
		}
		return got.MaxAbsDiff(want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceRefusesHugeShapes(t *testing.T) {
	x := tensor.NewCOO(tensor.Dims{2, 100000, 100000}, 0)
	x.Append(0, 0, 0, 1)
	b := la.NewMatrix(100000, 64)
	c := la.NewMatrix(100000, 64)
	out := la.NewMatrix(2, 64)
	if err := Reference(x, b, c, out); err == nil {
		t.Fatal("Reference accepted an enormous Khatri-Rao product")
	}
}

func TestParallelCOOPrivatization(t *testing.T) {
	// The privatised parallel COO kernel must agree with the sequential
	// one even when ranges split mid-row (output rows are shared).
	rng := rand.New(rand.NewSource(30))
	dims := tensor.Dims{4, 50, 50} // few rows: heavy write sharing
	x := randCOO(rng, dims, 2000)
	b := randMatrix(rng, dims[1], 24)
	c := randMatrix(rng, dims[2], 24)
	want := la.NewMatrix(dims[0], 24)
	if err := MTTKRP(x, b, c, want, Plan{Method: MethodCOO, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 100} {
		got := la.NewMatrix(dims[0], 24)
		if err := MTTKRP(x, b, c, got, Plan{Method: MethodCOO, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("workers=%d: differs by %v", workers, d)
		}
	}
}
