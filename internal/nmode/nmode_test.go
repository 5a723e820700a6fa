package nmode

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spblock/internal/la"
)

func randTensorN(rng *rand.Rand, dims []int, nnz int) *Tensor {
	t := NewTensor(dims, nnz)
	coords := make([]Index, len(dims))
	for p := 0; p < nnz; p++ {
		for m, d := range dims {
			coords[m] = Index(rng.Intn(d))
		}
		t.Append(coords, rng.NormFloat64())
	}
	if _, err := t.Dedup(); err != nil {
		panic(err)
	}
	return t
}

func randMatrix(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// denseMTTKRP is the brute-force oracle: out[i_mode] += val * Π rows.
func denseMTTKRP(t *Tensor, factors []*la.Matrix, mode, rank int) *la.Matrix {
	out := la.NewMatrix(t.Dims[mode], rank)
	for p := 0; p < t.NNZ(); p++ {
		orow := out.Row(int(t.Idx[mode][p]))
		for q := 0; q < rank; q++ {
			v := t.Val[p]
			for m := range t.Dims {
				if m == mode {
					continue
				}
				v *= factors[m].At(int(t.Idx[m][p]), q)
			}
			orow[q] += v
		}
	}
	return out
}

func TestTensorValidate(t *testing.T) {
	x := NewTensor([]int{2, 3}, 0)
	x.Append([]Index{1, 2}, 1)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewTensor([]int{2, 3}, 0)
	bad.Append([]Index{2, 0}, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := NewTensor([]int{2, 0}, 0).Validate(); err == nil {
		t.Fatal("zero dim accepted")
	}
	if err := (&Tensor{}).Validate(); err == nil {
		t.Fatal("order-0 accepted")
	}
}

// TestTensorValidateReportsFirstBadEntry: with bad coordinates in two
// modes, the error names the first bad entry in entry-major order (entry
// 1 mode 2), not the first bad mode's (entry 2 mode 0).
func TestTensorValidateReportsFirstBadEntry(t *testing.T) {
	x := NewTensor([]int{3, 3, 3}, 0)
	x.Append([]Index{0, 1, 2}, 1)
	x.Append([]Index{1, 1, 5}, 1)
	x.Append([]Index{-1, 0, 0}, 1)
	err := x.Validate()
	const want = "nmode: invalid tensor: entry 1 mode 2 coordinate 5 outside [0,3)"
	if err == nil || err.Error() != want {
		t.Fatalf("Validate() = %v, want %q", err, want)
	}
	x.Idx[2][1] = 2
	const wantNeg = "nmode: invalid tensor: entry 2 mode 0 coordinate -1 outside [0,3)"
	if err := x.Validate(); err == nil || err.Error() != wantNeg {
		t.Fatalf("Validate() = %v, want %q", err, wantNeg)
	}
}

func TestSortByModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randTensorN(rng, []int{5, 6, 7, 4}, 150)
	order := []int{2, 0, 3, 1}
	if err := x.SortByModes(order); err != nil {
		t.Fatal(err)
	}
	for p := 1; p < x.NNZ(); p++ {
		for _, m := range order {
			if x.Idx[m][p] != x.Idx[m][p-1] {
				if x.Idx[m][p] < x.Idx[m][p-1] {
					t.Fatalf("order violated at %d mode %d", p, m)
				}
				break
			}
		}
	}
	if err := x.SortByModes([]int{0, 0, 1, 2}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if err := x.SortByModes([]int{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	// A coordinate span wider than every mode and the nonzero count is
	// rejected rather than sized into the counting sort's buckets.
	wide := NewTensor([]int{4, 4}, 0)
	wide.Append([]Index{0, 0}, 1)
	wide.Append([]Index{1 << 30, 0}, 1)
	if err := wide.SortByModes([]int{0, 1}); !errors.Is(err, ErrBadTensor) {
		t.Fatalf("wide span: %v", err)
	}
}

func TestDedupN(t *testing.T) {
	x := NewTensor([]int{2, 2}, 0)
	x.Append([]Index{1, 1}, 2)
	x.Append([]Index{1, 1}, 3)
	x.Append([]Index{0, 0}, 1)
	merged, err := x.Dedup()
	if err != nil {
		t.Fatal(err)
	}
	if merged != 1 || x.NNZ() != 2 {
		t.Fatalf("merged=%d nnz=%d", merged, x.NNZ())
	}
	if x.Val[0] != 1 || x.Val[1] != 5 {
		t.Fatalf("vals = %v", x.Val)
	}
}

func TestDefaultModeOrder(t *testing.T) {
	// Output mode at the root, the rest by increasing length; equal
	// lengths put the higher mode index first.
	for _, tc := range []struct {
		dims []int
		mode int
		want []int
	}{
		{[]int{100, 5, 50, 5}, 2, []int{2, 3, 1, 0}}, // order-4 tie
		{[]int{7, 7, 7, 7}, 1, []int{1, 3, 2, 0}},
		{[]int{9, 9, 9}, 0, []int{0, 2, 1}}, // cubic: the SPLATT trees
		{[]int{9, 9, 9}, 1, []int{1, 2, 0}},
		{[]int{9, 9, 9}, 2, []int{2, 1, 0}},
		{[]int{60, 50, 40}, 0, []int{0, 2, 1}},
		{[]int{40, 50, 60}, 0, []int{0, 1, 2}},
		{[]int{4, 8}, 1, []int{1, 0}},
	} {
		if got := DefaultModeOrder(tc.dims, tc.mode); !slices.Equal(got, tc.want) {
			t.Errorf("DefaultModeOrder(%v, %d) = %v, want %v", tc.dims, tc.mode, got, tc.want)
		}
	}
}

func TestBuildMatchesFigure1(t *testing.T) {
	// The paper's 3x3x3 example with ordering (i, k, j) must reproduce
	// the SPLATT structure: 3 slices, 6 fibers, 7 leaves.
	x := NewTensor([]int{3, 3, 3}, 7)
	for _, e := range [][4]int{
		{0, 0, 0, 5}, {0, 1, 1, 3}, {0, 1, 2, 1},
		{1, 0, 2, 2}, {1, 1, 1, 9}, {1, 2, 2, 7}, {2, 0, 0, 9},
	} {
		x.Append([]Index{Index(e[0]), Index(e[1]), Index(e[2])}, float64(e[3]))
	}
	c, err := Build(x, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes(0) != 3 || c.NumNodes(1) != 6 || c.NNZ() != 7 {
		t.Fatalf("tree shape %d/%d/%d, want 3/6/7", c.NumNodes(0), c.NumNodes(1), c.NNZ())
	}
}

func TestBuildRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][]int{{6, 7}, {5, 6, 7}, {4, 5, 3, 6}, {3, 4, 3, 2, 3}} {
		x := randTensorN(rng, dims, 200)
		c, err := Build(x, nil)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		back := c.ToTensor()
		if _, err := back.Dedup(); err != nil {
			t.Fatal(err)
		}
		if back.NNZ() != x.NNZ() {
			t.Fatalf("dims %v: round trip %d != %d", dims, back.NNZ(), x.NNZ())
		}
		// Compare entry by entry: both are sorted by mode order 0..N-1.
		sorted := x.Clone()
		order := make([]int, len(dims))
		for m := range order {
			order[m] = m
		}
		if err := sorted.SortByModes(order); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < x.NNZ(); p++ {
			if back.Val[p] != sorted.Val[p] {
				t.Fatalf("dims %v: value mismatch at %d", dims, p)
			}
			for m := range dims {
				if back.Idx[m][p] != sorted.Idx[m][p] {
					t.Fatalf("dims %v: coord mismatch at %d mode %d", dims, p, m)
				}
			}
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	x := NewTensor([]int{3, 3, 3}, 0)
	c, err := Build(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	out := la.NewMatrix(3, 4)
	factors := []*la.Matrix{nil, la.NewMatrix(3, 4), la.NewMatrix(3, 4)}
	if err := MTTKRP(c, factors, out, Options{}); err != nil {
		t.Fatal(err)
	}
	if out.FrobeniusNorm() != 0 {
		t.Fatal("empty tensor produced output")
	}
}

func TestMTTKRPMatchesOracleAcrossOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{
		{8, 9},
		{7, 8, 9},
		{5, 6, 7, 8},
		{4, 5, 3, 4, 5},
	}
	for _, dims := range shapes {
		x := randTensorN(rng, dims, 300)
		for _, rank := range []int{1, 8, 16, 17, 33} {
			factors := make([]*la.Matrix, len(dims))
			for m, d := range dims {
				factors[m] = randMatrix(rng, d, rank)
			}
			for mode := range dims {
				want := denseMTTKRP(x, factors, mode, rank)
				c, err := Build(x, DefaultModeOrder(dims, mode))
				if err != nil {
					t.Fatal(err)
				}
				for _, opt := range []Options{
					{Workers: 1},
					{Workers: 3},
					{RankBlockCols: 16, Workers: 1},
					{RankBlockCols: 16, Workers: 2},
				} {
					out := la.NewMatrix(dims[mode], rank)
					if err := MTTKRP(c, factors, out, opt); err != nil {
						t.Fatalf("dims %v mode %d rank %d: %v", dims, mode, rank, err)
					}
					if d := out.MaxAbsDiff(want); d > 1e-9 {
						t.Fatalf("dims %v mode %d rank %d opt %+v: differs by %v",
							dims, mode, rank, opt, d)
					}
				}
			}
		}
	}
}

func TestMTTKRPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensorN(rng, []int{4, 5, 6}, 30)
	c, err := Build(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := []*la.Matrix{nil, randMatrix(rng, 5, 8), randMatrix(rng, 6, 8)}
	out := la.NewMatrix(4, 8)
	if err := MTTKRP(c, good, out, Options{}); err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}
	if err := MTTKRP(c, good[:2], out, Options{}); err == nil {
		t.Fatal("short factor list accepted")
	}
	if err := MTTKRP(c, []*la.Matrix{nil, nil, good[2]}, out, Options{}); err == nil {
		t.Fatal("missing factor accepted")
	}
	if err := MTTKRP(c, good, la.NewMatrix(5, 8), Options{}); err == nil {
		t.Fatal("wrong output rows accepted")
	}
	bad := []*la.Matrix{nil, randMatrix(rng, 5, 4), randMatrix(rng, 6, 8)}
	if err := MTTKRP(c, bad, out, Options{}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if err := MTTKRP(c, good, la.NewMatrix(4, 0), Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
}

func TestCSFMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randTensorN(rng, []int{6, 6, 6}, 100)
	c, err := Build(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.MemoryBytes() <= 0 {
		t.Fatal("no memory reported")
	}
}

// Property: for random order-4 tensors, rank-blocked parallel MTTKRP
// agrees with the plain kernel.
func TestQuickRankBlockedAgrees(t *testing.T) {
	f := func(seed int64, r uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{5, 4, 6, 3}
		x := randTensorN(rng, dims, 120)
		rank := int(r%40) + 1
		factors := make([]*la.Matrix, len(dims))
		for m, d := range dims {
			factors[m] = randMatrix(rng, d, rank)
		}
		c, err := Build(x, nil)
		if err != nil {
			return false
		}
		a := la.NewMatrix(dims[0], rank)
		b := la.NewMatrix(dims[0], rank)
		if MTTKRP(c, factors, a, Options{Workers: 1}) != nil {
			return false
		}
		if MTTKRP(c, factors, b, Options{RankBlockCols: 16, Workers: 3}) != nil {
			return false
		}
		return a.MaxAbsDiff(b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
