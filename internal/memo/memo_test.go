package memo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func randCOO(rng *rand.Rand, dims []int, nnz int) *nmode.Tensor {
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.NormFloat64())
	}
	tensor.Dedup(t)
	return t
}

func randMatrix(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewEngineValidation(t *testing.T) {
	bad := nmode.NewTensor([]int{2, 2, 2}, 0)
	bad.Append([]nmode.Index{5, 0, 0}, 1)
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestPairStructure(t *testing.T) {
	x := nmode.NewTensor([]int{3, 3, 4}, 0)
	x.Append([]nmode.Index{2, 0, 2}, 4)
	x.Append([]nmode.Index{0, 0, 3}, 2) // same pair (0,0) as the last entry
	x.Append([]nmode.Index{0, 1, 0}, 3)
	x.Append([]nmode.Index{0, 0, 1}, 1)
	e, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumPairs() != 3 {
		t.Fatalf("pairs = %d, want 3", e.NumPairs())
	}
	// The level-1 nodes are the (i, j) pairs in (i, j) order, each
	// holding its k leaves in k order.
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"i", e.pairs.ID[0], []nmode.Index{0, 2}},
		{"i pointers", e.pairs.Ptr[0], []int32{0, 2, 3}},
		{"j", e.pairs.ID[1], []nmode.Index{0, 1, 0}},
		{"pair pointers", e.pairs.Ptr[1], []int32{0, 2, 3, 4}},
		{"k", e.pairs.ID[2], []nmode.Index{1, 3, 0, 2}},
		{"values", e.pairs.Val, []float64{1, 2, 3, 4}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if x.Idx[0][0] != 2 {
		t.Fatal("NewEngine reordered the caller's tensor")
	}
	if e.MemoBytes(16) != 3*16*8 {
		t.Fatalf("MemoBytes = %d", e.MemoBytes(16))
	}
}

func TestFoldsMatchPlainMTTKRP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{12, 14, 10}
	x := randCOO(rng, dims, 400)
	e, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{1, 8, 17, 32} {
		a := randMatrix(rng, dims[0], rank)
		b := randMatrix(rng, dims[1], rank)
		c := randMatrix(rng, dims[2], rank)

		if err := e.ComputeS(c); err != nil {
			t.Fatal(err)
		}

		// Mode 1 oracle: plain SPLATT kernel.
		want1 := la.NewMatrix(dims[0], rank)
		if err := plain.Run(0, []*la.Matrix{a, b, c}, want1); err != nil {
			t.Fatal(err)
		}
		got1 := la.NewMatrix(dims[0], rank)
		if err := e.FoldMode1(b, got1); err != nil {
			t.Fatal(err)
		}
		if d := got1.MaxAbsDiff(want1); d > 1e-9 {
			t.Fatalf("rank %d: mode-1 fold differs by %v", rank, d)
		}

		// Mode 2 oracle: plain SPLATT kernel.
		want2 := la.NewMatrix(dims[1], rank)
		if err := plain.Run(1, []*la.Matrix{a, b, c}, want2); err != nil {
			t.Fatal(err)
		}
		got2 := la.NewMatrix(dims[1], rank)
		if err := e.FoldMode2(a, got2); err != nil {
			t.Fatal(err)
		}
		if d := got2.MaxAbsDiff(want2); d > 1e-9 {
			t.Fatalf("rank %d: mode-2 fold differs by %v", rank, d)
		}
	}
}

func TestFoldValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []int{4, 5, 6}
	x := randCOO(rng, dims, 30)
	e, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	b := randMatrix(rng, 5, 8)
	out := la.NewMatrix(4, 8)
	if err := e.FoldMode1(b, out); err == nil {
		t.Fatal("fold before ComputeS accepted")
	}
	if err := e.ComputeS(randMatrix(rng, 5, 8)); err == nil {
		t.Fatal("wrong C rows accepted")
	}
	if err := e.ComputeS(la.NewMatrix(6, 0)); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if err := e.ComputeS(randMatrix(rng, 6, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.FoldMode1(randMatrix(rng, 5, 4), out); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if err := e.FoldMode1(randMatrix(rng, 4, 8), out); err == nil {
		t.Fatal("wrong factor rows accepted")
	}
	if err := e.FoldMode2(randMatrix(rng, 4, 8), la.NewMatrix(3, 8)); err == nil {
		t.Fatal("wrong out rows accepted")
	}
}

func TestComputeSRankChangeReallocates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randCOO(rng, []int{6, 6, 6}, 50)
	e, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ComputeS(randMatrix(rng, 6, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.ComputeS(randMatrix(rng, 6, 16)); err != nil {
		t.Fatal(err)
	}
	out := la.NewMatrix(6, 16)
	if err := e.FoldMode1(randMatrix(rng, 6, 16), out); err != nil {
		t.Fatal(err)
	}
}

func TestFlopAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Long fibers in k: many nonzeros share (i,j) pairs, so P << nnz
	// and memoization pays off.
	x := nmode.NewTensor([]int{10, 10, 200}, 0)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			for k := 0; k < 50; k++ {
				x.Append([]nmode.Index{nmode.Index(i), nmode.Index(j), nmode.Index(rng.Intn(200))}, 1)
			}
		}
	}
	tensor.Dedup(x)
	e, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumPairs() != 100 {
		t.Fatalf("pairs = %d, want 100", e.NumPairs())
	}
	plain := e.FlopsPlain(64, x.NNZ())
	memo := e.FlopsMemoized(64, x.NNZ())
	if memo >= plain {
		t.Fatalf("memoization does not save flops: %d >= %d", memo, plain)
	}
	// With P = nnz/48 the saving should approach the 2x bound.
	if float64(plain)/float64(memo) < 1.5 {
		t.Fatalf("saving ratio %.2f below 1.5", float64(plain)/float64(memo))
	}
}

// Property: folds match a brute-force per-nonzero computation for
// random tensors and ranks.
func TestQuickMemoFolds(t *testing.T) {
	f := func(seed int64, r uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{6, 7, 5}
		x := randCOO(rng, dims, 100)
		rank := int(r%20) + 1
		a := randMatrix(rng, dims[0], rank)
		b := randMatrix(rng, dims[1], rank)
		c := randMatrix(rng, dims[2], rank)
		e, err := NewEngine(x)
		if err != nil {
			return false
		}
		if e.ComputeS(c) != nil {
			return false
		}
		want1 := la.NewMatrix(dims[0], rank)
		want2 := la.NewMatrix(dims[1], rank)
		for p := 0; p < x.NNZ(); p++ {
			arow := a.Row(int(x.Idx[0][p]))
			brow := b.Row(int(x.Idx[1][p]))
			crow := c.Row(int(x.Idx[2][p]))
			o1 := want1.Row(int(x.Idx[0][p]))
			o2 := want2.Row(int(x.Idx[1][p]))
			for q := 0; q < rank; q++ {
				o1[q] += x.Val[p] * brow[q] * crow[q]
				o2[q] += x.Val[p] * arow[q] * crow[q]
			}
		}
		got1 := la.NewMatrix(dims[0], rank)
		got2 := la.NewMatrix(dims[1], rank)
		if e.FoldMode1(b, got1) != nil || e.FoldMode2(a, got2) != nil {
			return false
		}
		return got1.MaxAbsDiff(want1) < 1e-9 && got2.MaxAbsDiff(want2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeSRankChangeReuse pins the memo buffer's shrink-or-reuse
// contract: lowering the rank on a long-lived engine must reuse the
// existing allocation (0 allocs, retention bounded by the high-water
// rank) while the folds stay correct at the new rank, and growing past
// the high-water mark allocates a fresh buffer.
func TestComputeSRankChangeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := []int{9, 8, 7}
	x := randCOO(rng, dims, 160)
	e, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	const hi, lo = 12, 5
	cHi := randMatrix(rng, dims[2], hi)
	if err := e.ComputeS(cHi); err != nil {
		t.Fatal(err)
	}
	hiData := &e.s.Data[0]
	hiCap := cap(e.s.Data)

	cLo := randMatrix(rng, dims[2], lo)
	allocs := testing.AllocsPerRun(10, func() {
		if err := e.ComputeS(cLo); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ComputeS after rank decrease allocated %.0f times per run, want 0", allocs)
	}
	if &e.s.Data[0] != hiData {
		t.Fatalf("rank decrease replaced the memo buffer instead of reusing it")
	}
	if cap(e.s.Data) != hiCap {
		t.Fatalf("memo buffer capacity changed across shrink: %d -> %d", hiCap, cap(e.s.Data))
	}
	if e.s.Rows != e.NumPairs() || e.s.Cols != lo || e.s.Stride != lo || len(e.s.Data) != e.NumPairs()*lo {
		t.Fatalf("shrunk memo header wrong: %dx%d stride %d len %d",
			e.s.Rows, e.s.Cols, e.s.Stride, len(e.s.Data))
	}

	// Folds at the shrunk rank must match a fresh engine (no stale
	// high-rank values can leak through the reused storage).
	b := randMatrix(rng, dims[1], lo)
	got := la.NewMatrix(dims[0], lo)
	if err := e.FoldMode1(b, got); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ComputeS(cLo); err != nil {
		t.Fatal(err)
	}
	want := la.NewMatrix(dims[0], lo)
	if err := fresh.FoldMode1(b, want); err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Fatalf("fold after shrink differs from fresh engine by %g", d)
	}

	// Growing back within capacity still reuses; past it, reallocates.
	if err := e.ComputeS(cHi); err != nil {
		t.Fatal(err)
	}
	if &e.s.Data[0] != hiData {
		t.Fatalf("regrow within high-water capacity reallocated")
	}
	cBig := randMatrix(rng, dims[2], hi+4)
	if err := e.ComputeS(cBig); err != nil {
		t.Fatal(err)
	}
	if got := e.s.Cols; got != hi+4 {
		t.Fatalf("grown memo rank = %d, want %d", got, hi+4)
	}
	if cap(e.s.Data) < e.NumPairs()*(hi+4) {
		t.Fatalf("grown memo buffer too small: cap %d", cap(e.s.Data))
	}
}
