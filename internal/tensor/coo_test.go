package tensor

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomCOO builds a random tensor with possibly duplicate coordinates.
func randomCOO(rng *rand.Rand, dims Dims, nnz int) *COO {
	t := NewCOO(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append(
			Index(rng.Intn(dims[0])),
			Index(rng.Intn(dims[1])),
			Index(rng.Intn(dims[2])),
			rng.NormFloat64(),
		)
	}
	return t
}

// entryKey serialises entry p for multiset comparisons.
type entryKey struct {
	i, j, k Index
	v       float64
}

func entryMultiset(t *COO) map[entryKey]int {
	m := make(map[entryKey]int, t.NNZ())
	for p := 0; p < t.NNZ(); p++ {
		m[entryKey{t.I[p], t.J[p], t.K[p], t.Val[p]}]++
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
	if (Dims{0, 1, 1}).Valid() || (Dims{1, -1, 1}).Valid() {
		t.Fatal("Valid accepted non-positive dims")
	}
	d := Dims{100, 200, 300}
	if !d.Valid() {
		t.Fatal("Valid rejected positive dims")
	}
	if d.Volume() != 6e6 {
		t.Fatalf("Volume = %v", d.Volume())
	}
	if d.String() != "100x200x300" {
		t.Fatalf("String = %q", d.String())
	}
	// Volume must not overflow for paper-scale Amazon dims.
	amazon := Dims{4_800_000, 1_800_000, 1_800_000}
	if amazon.Volume() <= 0 {
		t.Fatal("Volume overflowed")
	}
}

func TestAppendAndNNZ(t *testing.T) {
	c := NewCOO(Dims{3, 3, 3}, 0)
	if c.NNZ() != 0 {
		t.Fatal("fresh tensor not empty")
	}
	c.Append(0, 1, 2, 5)
	c.Append(2, 2, 2, -1)
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	if c.I[1] != 2 || c.J[0] != 1 || c.K[0] != 2 || c.Val[1] != -1 {
		t.Fatal("entries stored incorrectly")
	}
}

func TestValidateCatchesBadTensors(t *testing.T) {
	ok := NewCOO(Dims{2, 2, 2}, 0)
	ok.Append(1, 1, 1, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tensor rejected: %v", err)
	}

	bad := NewCOO(Dims{2, 0, 2}, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero dim accepted")
	}

	oob := NewCOO(Dims{2, 2, 2}, 0)
	oob.Append(2, 0, 0, 1)
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range i accepted")
	}
	oob2 := NewCOO(Dims{2, 2, 2}, 0)
	oob2.Append(0, 0, -1, 1)
	if err := oob2.Validate(); err == nil {
		t.Fatal("negative k accepted")
	}

	ragged := NewCOO(Dims{2, 2, 2}, 0)
	ragged.Append(0, 0, 0, 1)
	ragged.I = ragged.I[:0]
	if err := ragged.Validate(); err == nil {
		t.Fatal("ragged slices accepted")
	}
}

func TestPaperExampleFigure1(t *testing.T) {
	// The 3x3x3 tensor of Figure 1a (converted to 0-based indices).
	c := NewCOO(Dims{3, 3, 3}, 7)
	c.Append(0, 0, 0, 5)
	c.Append(0, 1, 1, 3)
	c.Append(0, 1, 2, 1)
	c.Append(1, 0, 2, 2)
	c.Append(1, 1, 1, 9)
	c.Append(1, 2, 2, 7)
	c.Append(2, 0, 0, 9)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 1b: 6 fibers across 3 rows.
	if got := c.CountFibers(); got != 6 {
		t.Fatalf("fibers = %d, want 6 (Figure 1b)", got)
	}
	csf, err := BuildCSF(c)
	if err != nil {
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
	c := randomCOO(rng, Dims{5, 6, 7}, 200)
	before := entryMultiset(c)
	c.SortFiberOrder()
	if !c.IsFiberSorted() {
		t.Fatal("not sorted after SortFiberOrder")
	}
	if !sameMultiset(before, entryMultiset(c)) {
		t.Fatal("sort changed the entry multiset")
	}
	// Strict (i,k,j) order check.
	for p := 1; p < c.NNZ(); p++ {
		a := [3]Index{c.I[p-1], c.K[p-1], c.J[p-1]}
		b := [3]Index{c.I[p], c.K[p], c.J[p]}
		if a[0] > b[0] || (a[0] == b[0] && (a[1] > b[1] || (a[1] == b[1] && a[2] > b[2]))) {
			t.Fatalf("order violated at %d: %v > %v", p, a, b)
		}
	}
}

func TestDedupSumsValues(t *testing.T) {
	c := NewCOO(Dims{2, 2, 2}, 0)
	c.Append(1, 1, 1, 2)
	c.Append(0, 0, 0, 1)
	c.Append(1, 1, 1, 3)
	c.Append(1, 1, 1, -1)
	merged := c.Dedup()
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
	c := NewCOO(Dims{1, 1, 1}, 0)
	if c.Dedup() != 0 {
		t.Fatal("dedup on empty tensor")
	}
}

func TestPermuteModes(t *testing.T) {
	c := NewCOO(Dims{2, 3, 4}, 0)
	c.Append(1, 2, 3, 7)
	p, err := c.PermuteModes([3]int{1, 2, 0}) // new mode order (j, k, i)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims != (Dims{3, 4, 2}) {
		t.Fatalf("dims = %v", p.Dims)
	}
	if p.I[0] != 2 || p.J[0] != 3 || p.K[0] != 1 || p.Val[0] != 7 {
		t.Fatalf("entry = (%d,%d,%d,%v)", p.I[0], p.J[0], p.K[0], p.Val[0])
	}
	if _, err := c.PermuteModes([3]int{0, 0, 1}); err == nil {
		t.Fatal("accepted non-permutation")
	}
	if _, err := c.PermuteModes([3]int{0, 1, 3}); err == nil {
		t.Fatal("accepted out-of-range mode")
	}
}

func TestPermuteIdentityAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCOO(rng, Dims{4, 5, 6}, 50)
	id, err := c.PermuteModes([3]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(entryMultiset(c), entryMultiset(id)) {
		t.Fatal("identity permutation changed entries")
	}
	// (1,2,0) then (2,0,1) is the identity.
	p1, _ := c.PermuteModes([3]int{1, 2, 0})
	p2, _ := p1.PermuteModes([3]int{2, 0, 1})
	if p2.Dims != c.Dims || !sameMultiset(entryMultiset(c), entryMultiset(p2)) {
		t.Fatal("permutation inverse does not round-trip")
	}
}

func TestNormSquared(t *testing.T) {
	c := NewCOO(Dims{2, 2, 2}, 0)
	c.Append(0, 0, 0, 3)
	c.Append(1, 1, 1, 4)
	if c.NormSquared() != 25 {
		t.Fatalf("NormSquared = %v", c.NormSquared())
	}
}

func TestCountFibersSortedAndUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCOO(rng, Dims{6, 6, 6}, 120)
	unsorted := c.CountFibers()
	s := c.Clone()
	s.SortFiberOrder()
	if got := s.CountFibers(); got != unsorted {
		t.Fatalf("fiber count differs sorted=%d unsorted=%d", got, unsorted)
	}
}

func TestDensity(t *testing.T) {
	c := NewCOO(Dims{10, 10, 10}, 0)
	c.Append(0, 0, 0, 1)
	if c.Density() != 1e-3 {
		t.Fatalf("density = %v", c.Density())
	}
	bad := &COO{Dims: Dims{0, 1, 1}}
	if bad.Density() != 0 {
		t.Fatal("density of invalid dims should be 0")
	}
}

// Property: sorting preserves the multiset of entries for arbitrary
// random tensors (testing/quick drives shapes and seeds).
func TestQuickSortIsPermutation(t *testing.T) {
	f := func(seed int64, di, dj, dk uint8, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := Dims{int(di%8) + 1, int(dj%8) + 1, int(dk%8) + 1}
		c := randomCOO(rng, dims, int(n%512))
		before := entryMultiset(c)
		c.SortFiberOrder()
		return c.IsFiberSorted() && sameMultiset(before, entryMultiset(c))
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
		dims := Dims{3, 3, 3}
		c := randomCOO(rng, dims, int(n%256))
		// Oracle: map-based accumulation.
		oracle := make(map[[3]Index]float64)
		for p := 0; p < c.NNZ(); p++ {
			oracle[[3]Index{c.I[p], c.J[p], c.K[p]}] += c.Val[p]
		}
		c.Dedup()
		if c.NNZ() != len(oracle) {
			return false
		}
		for p := 0; p < c.NNZ(); p++ {
			want := oracle[[3]Index{c.I[p], c.J[p], c.K[p]}]
			if diff := c.Val[p] - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return sort.IsSorted(cooSorter{c})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortFiberOrderCountingSortPath(t *testing.T) {
	// Above the threshold (4096 entries) the LSD counting sort runs;
	// it must agree with the comparison sort exactly.
	rng := rand.New(rand.NewSource(77))
	big := randomCOO(rng, Dims{50, 60, 70}, 10000)
	before := entryMultiset(big)
	ref := big.Clone()
	sort.Sort(cooSorter{ref}) // force the comparison path

	big.SortFiberOrder()
	if !big.IsFiberSorted() {
		t.Fatal("counting sort output not sorted")
	}
	if !sameMultiset(before, entryMultiset(big)) {
		t.Fatal("counting sort changed the entry multiset")
	}
	for p := 0; p < big.NNZ(); p++ {
		if big.I[p] != ref.I[p] || big.K[p] != ref.K[p] || big.J[p] != ref.J[p] {
			t.Fatalf("counting sort diverges from comparison sort at %d", p)
		}
	}
}

func TestSortFiberOrderOutOfRangeFallsBack(t *testing.T) {
	// Coordinates outside Dims would crash the counting sort; the
	// implementation must detect them and fall back to comparisons.
	c := NewCOO(Dims{2, 2, 2}, 0)
	for p := 0; p < 5000; p++ {
		c.Append(Index(p%10), Index(p%7), Index(p%3), 1) // i up to 9 > dims
	}
	c.SortFiberOrder() // must not panic
	if !c.IsFiberSorted() {
		t.Fatal("fallback did not sort")
	}
}
