// Package tensor implements the sparse tensor substrate of the paper:
// the coordinate (COO) format, the SPLATT / compressed-sparse-fiber
// structure of Figure 1b, conversions between them, FROSTT-style text
// I/O and basic shape statistics.
//
// Tensors here are third-order (the paper restricts its analysis to
// 3-mode data; Sec. III-C notes the methodology extends trivially to
// higher order). Mode indices are named i (mode-1), j (mode-2) and
// k (mode-3), matching Algorithm 1 of the paper.
package tensor

import (
	"errors"
	"fmt"
	"sort"
)

// Index is the in-memory coordinate type. The paper's byte model
// assumes 64-bit indices; our kernels use 32-bit indices (all the
// evaluated tensors have mode lengths < 2^31), which the cache-traffic
// experiments account for explicitly.
type Index = int32

// Dims holds the mode lengths of a third-order tensor.
type Dims [3]int

// Valid reports whether all mode lengths are positive.
func (d Dims) Valid() bool { return d[0] > 0 && d[1] > 0 && d[2] > 0 }

// Volume returns the product of the mode lengths as a float64 (the
// integer product overflows for paper-scale shapes such as Amazon's
// 4.8M x 1.8M x 1.8M).
func (d Dims) Volume() float64 {
	return float64(d[0]) * float64(d[1]) * float64(d[2])
}

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]) }

// COO is a third-order sparse tensor in coordinate format (Figure 1a):
// parallel slices of mode indices plus values.
type COO struct {
	Dims Dims
	I    []Index
	J    []Index
	K    []Index
	Val  []float64
}

// NewCOO allocates an empty COO tensor with the given mode lengths and
// capacity hint.
func NewCOO(dims Dims, capacity int) *COO {
	return &COO{
		Dims: dims,
		I:    make([]Index, 0, capacity),
		J:    make([]Index, 0, capacity),
		K:    make([]Index, 0, capacity),
		Val:  make([]float64, 0, capacity),
	}
}

// NNZ returns the number of stored entries.
//
//spblock:hotpath
func (t *COO) NNZ() int { return len(t.Val) }

// Density returns nnz / (I*J*K).
func (t *COO) Density() float64 {
	if !t.Dims.Valid() {
		return 0
	}
	return float64(t.NNZ()) / t.Dims.Volume()
}

// Append adds a nonzero. It does not check bounds; call Validate before
// handing user-supplied data to kernels.
func (t *COO) Append(i, j, k Index, v float64) {
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.K = append(t.K, k)
	t.Val = append(t.Val, v)
}

// ErrBadTensor wraps structural validation failures.
var ErrBadTensor = errors.New("tensor: invalid tensor")

// Validate checks structural invariants: positive dims, equal slice
// lengths and in-range coordinates.
func (t *COO) Validate() error {
	if !t.Dims.Valid() {
		return fmt.Errorf("%w: non-positive dims %v", ErrBadTensor, t.Dims)
	}
	n := len(t.Val)
	if len(t.I) != n || len(t.J) != n || len(t.K) != n {
		return fmt.Errorf("%w: ragged coordinate slices (%d,%d,%d,%d)",
			ErrBadTensor, len(t.I), len(t.J), len(t.K), n)
	}
	for p := 0; p < n; p++ {
		if t.I[p] < 0 || int(t.I[p]) >= t.Dims[0] ||
			t.J[p] < 0 || int(t.J[p]) >= t.Dims[1] ||
			t.K[p] < 0 || int(t.K[p]) >= t.Dims[2] {
			return fmt.Errorf("%w: entry %d at (%d,%d,%d) outside %v",
				ErrBadTensor, p, t.I[p], t.J[p], t.K[p], t.Dims)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	c := NewCOO(t.Dims, t.NNZ())
	c.I = append(c.I, t.I...)
	c.J = append(c.J, t.J...)
	c.K = append(c.K, t.K...)
	c.Val = append(c.Val, t.Val...)
	return c
}

// cooSorter orders entries by (i, k, j): slices first, then fibers
// within a slice, then nonzeros within a fiber. This is exactly the
// order the SPLATT structure of Figure 1b stores mode-2 fibers in.
type cooSorter struct{ t *COO }

func (s cooSorter) Len() int { return s.t.NNZ() }
func (s cooSorter) Less(a, b int) bool {
	t := s.t
	if t.I[a] != t.I[b] {
		return t.I[a] < t.I[b]
	}
	if t.K[a] != t.K[b] {
		return t.K[a] < t.K[b]
	}
	return t.J[a] < t.J[b]
}
func (s cooSorter) Swap(a, b int) {
	t := s.t
	t.I[a], t.I[b] = t.I[b], t.I[a]
	t.J[a], t.J[b] = t.J[b], t.J[a]
	t.K[a], t.K[b] = t.K[b], t.K[a]
	t.Val[a], t.Val[b] = t.Val[b], t.Val[a]
}

// SortFiberOrder sorts entries into (i, k, j) order in place. Large
// tensors use a stable LSD counting sort (three linear passes, one per
// mode), which is substantially faster than a comparison sort for the
// multi-million-nonzero inputs the experiments run on; small tensors
// fall back to sort.Sort.
func (t *COO) SortFiberOrder() {
	const countingSortThreshold = 1 << 12
	n := t.NNZ()
	if n < countingSortThreshold || !t.coordsInRange() {
		sort.Sort(cooSorter{t})
		return
	}
	srcI, srcJ, srcK, srcV := t.I, t.J, t.K, t.Val
	dstI := make([]Index, n)
	dstJ := make([]Index, n)
	dstK := make([]Index, n)
	dstV := make([]float64, n)
	// Least-significant key first: j, then k, then i. Each pass is a
	// stable counting sort, so the final order is (i, k, j).
	for pass := 0; pass < 3; pass++ {
		var key []Index
		var dim int
		switch pass {
		case 0:
			key, dim = srcJ, t.Dims[1]
		case 1:
			key, dim = srcK, t.Dims[2]
		default:
			key, dim = srcI, t.Dims[0]
		}
		counts := make([]int32, dim+1)
		for _, v := range key {
			counts[v+1]++
		}
		for d := 0; d < dim; d++ {
			counts[d+1] += counts[d]
		}
		for p := 0; p < n; p++ {
			pos := counts[key[p]]
			counts[key[p]]++
			dstI[pos], dstJ[pos], dstK[pos], dstV[pos] = srcI[p], srcJ[p], srcK[p], srcV[p]
		}
		srcI, dstI = dstI, srcI
		srcJ, dstJ = dstJ, srcJ
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	t.I, t.J, t.K, t.Val = srcI, srcJ, srcK, srcV
}

// coordsInRange reports whether all coordinates lie inside Dims, the
// precondition for the counting-sort fast path.
func (t *COO) coordsInRange() bool {
	for p := 0; p < t.NNZ(); p++ {
		if t.I[p] < 0 || int(t.I[p]) >= t.Dims[0] ||
			t.J[p] < 0 || int(t.J[p]) >= t.Dims[1] ||
			t.K[p] < 0 || int(t.K[p]) >= t.Dims[2] {
			return false
		}
	}
	return true
}

// IsFiberSorted reports whether entries are in (i, k, j) order.
func (t *COO) IsFiberSorted() bool { return sort.IsSorted(cooSorter{t}) }

// Dedup merges duplicate coordinates by summing their values. The
// tensor is left fiber-sorted. Returns the number of merged entries.
func (t *COO) Dedup() int {
	if t.NNZ() == 0 {
		return 0
	}
	t.SortFiberOrder()
	w := 0
	for p := 1; p < t.NNZ(); p++ {
		if t.I[p] == t.I[w] && t.J[p] == t.J[w] && t.K[p] == t.K[w] {
			t.Val[w] += t.Val[p]
			continue
		}
		w++
		t.I[w], t.J[w], t.K[w], t.Val[w] = t.I[p], t.J[p], t.K[p], t.Val[p]
	}
	merged := t.NNZ() - (w + 1)
	t.I = t.I[:w+1]
	t.J = t.J[:w+1]
	t.K = t.K[:w+1]
	t.Val = t.Val[:w+1]
	return merged
}

// PermuteModes returns a new tensor whose mode order is rearranged so
// that new mode m holds what old mode perm[m] held. perm must be a
// permutation of {0,1,2}. MTTKRP for mode n on tensor X equals MTTKRP
// for mode 1 on X permuted so that mode n comes first (Sec. III-B),
// which is how the tests build dense references for every mode.
func (t *COO) PermuteModes(perm [3]int) (*COO, error) {
	seen := [3]bool{}
	for _, p := range perm {
		if p < 0 || p > 2 || seen[p] {
			return nil, fmt.Errorf("%w: bad mode permutation %v", ErrBadTensor, perm)
		}
		seen[p] = true
	}
	out := NewCOO(Dims{t.Dims[perm[0]], t.Dims[perm[1]], t.Dims[perm[2]]}, t.NNZ())
	old := [3][]Index{t.I, t.J, t.K}
	for p := 0; p < t.NNZ(); p++ {
		out.Append(old[perm[0]][p], old[perm[1]][p], old[perm[2]][p], t.Val[p])
	}
	return out, nil
}

// NormSquared returns Σ v².
func (t *COO) NormSquared() float64 {
	var s float64
	for _, v := range t.Val {
		s += v * v
	}
	return s
}

// CountFibers returns the number of distinct non-empty (i, k) mode-2
// fibers. The tensor need not be sorted.
func (t *COO) CountFibers() int {
	if t.NNZ() == 0 {
		return 0
	}
	if t.IsFiberSorted() {
		f := 1
		for p := 1; p < t.NNZ(); p++ {
			if t.I[p] != t.I[p-1] || t.K[p] != t.K[p-1] {
				f++
			}
		}
		return f
	}
	seen := make(map[[2]Index]struct{}, t.NNZ()/2)
	for p := 0; p < t.NNZ(); p++ {
		seen[[2]Index{t.I[p], t.K[p]}] = struct{}{}
	}
	return len(seen)
}
