package tensor

// The tests in this package pin nmode's tensor behaviour at order 3,
// in the SPLATT mode order (0, 2, 1) this package names: sorting and
// merging in fiber order, the SPLATT tree, the .tns round trip and the
// shape statistics.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"spblock/internal/nmode"
)

// randomCOO builds a random third-order tensor with possibly duplicate
// coordinates.
func randomCOO(rng *rand.Rand, dims []int, nnz int) *nmode.Tensor {
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		add(t, nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])),
			nmode.Index(rng.Intn(dims[2])), rng.NormFloat64())
	}
	return t
}

// add appends the nonzero (i, j, k) = v.
func add(t *nmode.Tensor, i, j, k nmode.Index, v float64) {
	t.Append([]nmode.Index{i, j, k}, v)
}

// sortFiberOrder sorts t into fiber order (i, k, j).
func sortFiberOrder(t *nmode.Tensor) error { return t.SortByModes(SPLATTModeOrder()) }

// fiberSorted reports whether t is in fiber order (i, k, j).
func fiberSorted(t *nmode.Tensor) bool {
	perm, err := t.SortPerm(SPLATTModeOrder())
	return err == nil && perm == nil
}

// stats is ComputeStats for a tensor the test knows to be valid.
func stats(t *testing.T, x *nmode.Tensor) Stats {
	t.Helper()
	s, err := ComputeStats(x)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryKey serialises entry p for multiset comparisons.
type entryKey struct {
	i, j, k nmode.Index
	v       float64
}

func entryAt(t *nmode.Tensor, p int) entryKey {
	return entryKey{t.Idx[0][p], t.Idx[1][p], t.Idx[2][p], t.Val[p]}
}

func entryMultiset(t *nmode.Tensor) map[entryKey]int {
	m := make(map[entryKey]int, t.NNZ())
	for p := 0; p < t.NNZ(); p++ {
		m[entryAt(t, p)]++
	}
	return m
}

func sameMultiset(a, b map[entryKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestDimsValidVolume(t *testing.T) {
	for _, dims := range [][]int{{0, 1, 1}, {1, -1, 1}} {
		if err := nmode.NewTensor(dims, 0).Validate(); !errors.Is(err, nmode.ErrBadTensor) {
			t.Fatalf("dims %v: %v, want ErrBadTensor", dims, err)
		}
	}
	if FormatDims([]int{100, 200, 300}) != "100x200x300" {
		t.Fatalf("FormatDims = %q", FormatDims([]int{100, 200, 300}))
	}
	// The density's volume must not overflow for paper-scale Amazon dims.
	amazon := nmode.NewTensor([]int{4_800_000, 1_800_000, 1_800_000}, 1)
	add(amazon, 0, 0, 0, 1)
	if d := stats(t, amazon).Density; !(d > 0) || math.IsInf(d, 0) {
		t.Fatalf("Amazon density = %v", d)
	}
}

func TestAppendAndNNZ(t *testing.T) {
	c := nmode.NewTensor([]int{3, 3, 3}, 0)
	if c.NNZ() != 0 {
		t.Fatal("fresh tensor not empty")
	}
	add(c, 0, 1, 2, 5)
	add(c, 2, 2, 2, -1)
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	if c.Idx[0][1] != 2 || c.Idx[1][0] != 1 || c.Idx[2][0] != 2 || c.Val[1] != -1 {
		t.Fatal("entries stored incorrectly")
	}
}

func TestValidateCatchesBadTensors(t *testing.T) {
	ok := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(ok, 1, 1, 1, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tensor rejected: %v", err)
	}

	bad := nmode.NewTensor([]int{2, 0, 2}, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero dim accepted")
	}

	oob := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(oob, 2, 0, 0, 1)
	if err := oob.Validate(); !errors.Is(err, nmode.ErrBadTensor) {
		t.Fatalf("out-of-range i: %v, want ErrBadTensor", err)
	}
	oob2 := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(oob2, 0, 0, -1, 1)
	if err := oob2.Validate(); err == nil {
		t.Fatal("negative k accepted")
	}

	ragged := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(ragged, 0, 0, 0, 1)
	ragged.Idx[0] = ragged.Idx[0][:0]
	if err := ragged.Validate(); err == nil {
		t.Fatal("ragged slices accepted")
	}

	if err := CheckOrder3(nmode.NewTensor([]int{2, 2, 2, 2}, 0)); !errors.Is(err, nmode.ErrBadTensor) {
		t.Fatalf("order-4 tensor: %v, want ErrBadTensor", err)
	}
	if _, err := ComputeStats(nmode.NewTensor([]int{2, 2}, 0)); !errors.Is(err, nmode.ErrBadTensor) {
		t.Fatalf("order-2 stats: %v, want ErrBadTensor", err)
	}
}

// figure1 is the 3x3x3 tensor of Figure 1a (converted to 0-based
// indices).
func figure1() *nmode.Tensor {
	c := nmode.NewTensor([]int{3, 3, 3}, 7)
	add(c, 0, 0, 0, 5)
	add(c, 0, 1, 1, 3)
	add(c, 0, 1, 2, 1)
	add(c, 1, 0, 2, 2)
	add(c, 1, 1, 1, 9)
	add(c, 1, 2, 2, 7)
	add(c, 2, 0, 0, 9)
	return c
}

func TestPaperExampleFigure1(t *testing.T) {
	c := figure1()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 1b: 6 fibers across 3 rows.
	if got := stats(t, c).Fibers; got != 6 {
		t.Fatalf("fibers = %d, want 6 (Figure 1b)", got)
	}
	csf, err := nmode.Build(c, SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSPLATT(csf); err != nil {
		t.Fatal(err)
	}
	if csf.NumNodes(0) != 3 || csf.NumNodes(1) != 6 || csf.NNZ() != 7 {
		t.Fatalf("CSF shape %d/%d/%d, want 3/6/7",
			csf.NumNodes(0), csf.NumNodes(1), csf.NNZ())
	}
	// Row 1 of the figure holds fibers k=1,2,3 (1-based) = 0,1,2 here.
	if n := csf.Ptr[0][1] - csf.Ptr[0][0]; n != 3 {
		t.Fatalf("row 0 fiber count = %d, want 3", n)
	}
}

func TestSortFiberOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCOO(rng, []int{5, 6, 7}, 200)
	before := entryMultiset(c)
	if err := sortFiberOrder(c); err != nil {
		t.Fatal(err)
	}
	if !fiberSorted(c) {
		t.Fatal("not sorted after SortByModes")
	}
	if !sameMultiset(before, entryMultiset(c)) {
		t.Fatal("sort changed the entry multiset")
	}
	// Strict (i,k,j) order check.
	for p := 1; p < c.NNZ(); p++ {
		a := [3]nmode.Index{c.Idx[0][p-1], c.Idx[2][p-1], c.Idx[1][p-1]}
		b := [3]nmode.Index{c.Idx[0][p], c.Idx[2][p], c.Idx[1][p]}
		if slices.Compare(a[:], b[:]) > 0 {
			t.Fatalf("order violated at %d: %v > %v", p, a, b)
		}
	}
}

func TestDedupSumsValues(t *testing.T) {
	c := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(c, 1, 1, 1, 2)
	add(c, 0, 0, 0, 1)
	add(c, 1, 1, 1, 3)
	add(c, 1, 1, 1, -1)
	merged, err := Dedup(c)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	if c.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", c.NNZ())
	}
	// After dedup the tensor is sorted: (0,0,0)=1 then (1,1,1)=4.
	if c.Val[0] != 1 || c.Val[1] != 4 {
		t.Fatalf("values = %v", c.Val)
	}
}

func TestDedupEmpty(t *testing.T) {
	c := nmode.NewTensor([]int{1, 1, 1}, 0)
	if merged, err := Dedup(c); merged != 0 || err != nil {
		t.Fatalf("dedup on empty tensor: merged %d, %v", merged, err)
	}
}

func TestPermuteModes(t *testing.T) {
	c := nmode.NewTensor([]int{2, 3, 4}, 0)
	add(c, 1, 2, 3, 7)
	p, err := c.Permute([]int{1, 2, 0}) // new mode order (j, k, i)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Dims, []int{3, 4, 2}) {
		t.Fatalf("dims = %v", p.Dims)
	}
	if e := entryAt(p, 0); e != (entryKey{2, 3, 1, 7}) {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := c.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("accepted non-permutation")
	}
	if _, err := c.Permute([]int{0, 1, 3}); err == nil {
		t.Fatal("accepted out-of-range mode")
	}
}

func TestPermuteIdentityAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCOO(rng, []int{4, 5, 6}, 50)
	id, err := c.Permute([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(entryMultiset(c), entryMultiset(id)) {
		t.Fatal("identity permutation changed entries")
	}
	// (1,2,0) then (2,0,1) is the identity.
	p1, _ := c.Permute([]int{1, 2, 0})
	p2, _ := p1.Permute([]int{2, 0, 1})
	if !slices.Equal(p2.Dims, c.Dims) || !sameMultiset(entryMultiset(c), entryMultiset(p2)) {
		t.Fatal("permutation inverse does not round-trip")
	}
}

func TestNormSquared(t *testing.T) {
	c := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(c, 0, 0, 0, 3)
	add(c, 1, 1, 1, 4)
	if c.NormSquared() != 25 {
		t.Fatalf("NormSquared = %v", c.NormSquared())
	}
}

func TestCountFibersSortedAndUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCOO(rng, []int{6, 6, 6}, 120)
	unsorted := stats(t, c).Fibers
	if fiberSorted(c) {
		t.Fatal("test setup: input should be unsorted")
	}
	s := c.Clone()
	if err := sortFiberOrder(s); err != nil {
		t.Fatal(err)
	}
	if got := stats(t, s).Fibers; got != unsorted {
		t.Fatalf("fiber count differs sorted=%d unsorted=%d", got, unsorted)
	}
	if fiberSorted(c) {
		t.Fatal("ComputeStats sorted its input")
	}
}

func TestDensity(t *testing.T) {
	c := nmode.NewTensor([]int{10, 10, 10}, 0)
	add(c, 0, 0, 0, 1)
	if d := stats(t, c).Density; d != 1e-3 {
		t.Fatalf("density = %v", d)
	}
	bad := nmode.NewTensor([]int{0, 1, 1}, 0)
	if stats(t, bad).Density != 0 {
		t.Fatal("density of invalid dims should be 0")
	}
}

// Property: sorting preserves the multiset of entries for arbitrary
// random tensors (testing/quick drives shapes and seeds).
func TestQuickSortIsPermutation(t *testing.T) {
	f := func(seed int64, di, dj, dk uint8, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{int(di%8) + 1, int(dj%8) + 1, int(dk%8) + 1}
		c := randomCOO(rng, dims, int(n%512))
		before := entryMultiset(c)
		return sortFiberOrder(c) == nil && fiberSorted(c) && sameMultiset(before, entryMultiset(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dedup leaves exactly the distinct coordinates, each with
// the sum of its duplicates' values.
func TestQuickDedup(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCOO(rng, []int{3, 3, 3}, int(n%256))
		// Oracle: map-based accumulation.
		oracle := make(map[[3]nmode.Index]float64)
		for p := 0; p < c.NNZ(); p++ {
			oracle[[3]nmode.Index{c.Idx[0][p], c.Idx[1][p], c.Idx[2][p]}] += c.Val[p]
		}
		if _, err := Dedup(c); err != nil || c.NNZ() != len(oracle) {
			return false
		}
		for p := 0; p < c.NNZ(); p++ {
			want := oracle[[3]nmode.Index{c.Idx[0][p], c.Idx[1][p], c.Idx[2][p]}]
			if diff := c.Val[p] - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return fiberSorted(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortFiberOrderCountingSortPath(t *testing.T) {
	// The counting sort must agree exactly with a stable comparison
	// sort, equal coordinates included.
	rng := rand.New(rand.NewSource(77))
	big := randomCOO(rng, []int{50, 60, 70}, 10000)
	before := entryMultiset(big)
	ref := make([]entryKey, big.NNZ())
	for p := range ref {
		ref[p] = entryAt(big, p)
	}
	slices.SortStableFunc(ref, func(a, b entryKey) int {
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.k, b.k), cmp.Compare(a.j, b.j))
	})

	if err := sortFiberOrder(big); err != nil {
		t.Fatal(err)
	}
	if !fiberSorted(big) {
		t.Fatal("counting sort output not sorted")
	}
	if !sameMultiset(before, entryMultiset(big)) {
		t.Fatal("counting sort changed the entry multiset")
	}
	for p, e := range ref {
		if entryAt(big, p) != e {
			t.Fatalf("counting sort diverges from the stable comparison sort at %d", p)
		}
	}
}

func TestSortFiberOrderOutOfRangeFallsBack(t *testing.T) {
	// Coordinates outside Dims must sort too: the counting sort keys
	// each mode over the span its coordinates cover.
	c := nmode.NewTensor([]int{2, 2, 2}, 0)
	for p := 0; p < 5000; p++ {
		add(c, nmode.Index(p%10), nmode.Index(p%7), nmode.Index(p%3), 1) // i up to 9 > dims
	}
	if err := sortFiberOrder(c); err != nil {
		t.Fatal(err)
	}
	if !fiberSorted(c) {
		t.Fatal("fallback did not sort")
	}
}

// dedupOracle sums each coordinate's values left to right in input
// order, the order Dedup must merge duplicates in.
func dedupOracle(c *nmode.Tensor) map[[3]nmode.Index]float64 {
	sums := make(map[[3]nmode.Index]float64, c.NNZ())
	for p := 0; p < c.NNZ(); p++ {
		key := [3]nmode.Index{c.Idx[0][p], c.Idx[1][p], c.Idx[2][p]}
		if s, ok := sums[key]; ok {
			sums[key] = s + c.Val[p]
		} else {
			sums[key] = c.Val[p]
		}
	}
	return sums
}

// checkDedup reports whether c holds exactly want's coordinates in
// strictly increasing (i, k, j) order, each with want's value bits.
func checkDedup(c *nmode.Tensor, want map[[3]nmode.Index]float64) error {
	if c.NNZ() != len(want) {
		return fmt.Errorf("nnz = %d, want %d distinct coordinates", c.NNZ(), len(want))
	}
	for p := 0; p < c.NNZ(); p++ {
		if p > 0 {
			a := [3]nmode.Index{c.Idx[0][p-1], c.Idx[2][p-1], c.Idx[1][p-1]}
			b := [3]nmode.Index{c.Idx[0][p], c.Idx[2][p], c.Idx[1][p]}
			if slices.Compare(a[:], b[:]) >= 0 {
				return fmt.Errorf("entries %d and %d out of (i, k, j) order: %v, %v", p-1, p, a, b)
			}
		}
		key := [3]nmode.Index{c.Idx[0][p], c.Idx[1][p], c.Idx[2][p]}
		if got := c.Val[p]; math.Float64bits(got) != math.Float64bits(want[key]) {
			return fmt.Errorf("entry %v = %v, want the input-order sum %v", key, got, want[key])
		}
	}
	return nil
}

// TestDedupSumsInInputOrder pins duplicate merging to input order on a
// small tensor with many collisions: every merged value must be the
// left-to-right sum of its duplicates, bit for bit, and the result in
// fiber order.
func TestDedupSumsInInputOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := randomCOO(rand.New(rand.NewSource(seed)), []int{4, 4, 4}, 200)
		want := dedupOracle(c)
		if _, err := Dedup(c); err != nil {
			t.Fatal(err)
		}
		if err := checkDedup(c, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestComputeStats(t *testing.T) {
	c := nmode.NewTensor([]int{10, 10, 10}, 0)
	add(c, 0, 0, 0, 1)
	add(c, 0, 1, 0, 1) // same fiber
	add(c, 0, 0, 1, 1) // new fiber
	s := stats(t, c)
	if s.NNZ != 3 || s.Fibers != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Density != 3e-3 {
		t.Fatalf("density = %v", s.Density)
	}
	if s.AvgFiberLength != 1.5 {
		t.Fatalf("avg fiber = %v", s.AvgFiberLength)
	}
	if s.COOBytes != 96 {
		t.Fatalf("COOBytes = %d", s.COOBytes)
	}
	if s.SPLATTBytes != 16+80+32+48 {
		t.Fatalf("SPLATTBytes = %d", s.SPLATTBytes)
	}
	if !strings.HasPrefix(s.String(), "10x10x10 nnz=3") {
		t.Fatalf("String = %q", s.String())
	}
}
