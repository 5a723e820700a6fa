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
	"cmp"
	"fmt"

	"spblock/internal/nmode"
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

// ErrBadTensor wraps structural validation failures. It is nmode's, so
// a failure found through the order-N view (ToNMode) matches it too.
var ErrBadTensor = nmode.ErrBadTensor

// Validate checks structural invariants: positive dims, equal slice
// lengths and in-range coordinates.
func (t *COO) Validate() error { return ToNMode(t).Validate() }

// Clone returns a deep copy.
func (t *COO) Clone() *COO { return fromView(ToNMode(t).Clone()) }

// SortFiberOrder sorts entries into (i, k, j) order in place (slices
// first, then fibers within a slice, then nonzeros within a fiber: the
// order the SPLATT structure of Figure 1b stores mode-2 fibers in) with
// nmode's stable counting sort.
func (t *COO) SortFiberOrder() error {
	v := ToNMode(t)
	err := v.SortByModes(SPLATTModeOrder())
	*t = *fromView(v)
	return err
}

// IsFiberSorted reports whether entries are in (i, k, j) order.
func (t *COO) IsFiberSorted() bool {
	for p := 1; p < t.NNZ(); p++ {
		if cmp.Or(cmp.Compare(t.I[p-1], t.I[p]), cmp.Compare(t.K[p-1], t.K[p]),
			cmp.Compare(t.J[p-1], t.J[p])) > 0 {
			return false
		}
	}
	return true
}

// Dedup merges duplicate coordinates by summing their values in input
// order. The tensor is left fiber-sorted. Returns the number of merged
// entries.
func (t *COO) Dedup() (int, error) {
	v := ToNMode(t)
	merged, err := v.Dedup(SPLATTModeOrder()...)
	*t = *fromView(v)
	return merged, err
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
