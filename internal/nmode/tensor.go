// Package nmode generalises the library to tensors of arbitrary order,
// following the paper's note that "our methodology and result can
// trivially be extended to higher-order data" via the compressed sparse
// fiber (CSF) format of Smith & Karypis (Sec. III-C): an N-level tree
// whose root level is the MTTKRP output mode, with the paper's
// multi-dimensional and rank blocking applied at every order. An
// Executor runs one mode's product; an Engine builds one Executor per
// mode and serves every product of a decomposition.
package nmode

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Index is the coordinate type, matching the third-order packages.
type Index = int32

// ErrBadTensor wraps structural validation failures.
var ErrBadTensor = errors.New("nmode: invalid tensor")

// Tensor is an order-N sparse tensor in coordinate format.
type Tensor struct {
	Dims []int
	// Idx[m][p] is the mode-m coordinate of nonzero p.
	Idx [][]Index
	Val []float64
}

// NewTensor allocates an empty tensor of the given shape.
func NewTensor(dims []int, capacity int) *Tensor {
	t := &Tensor{
		Dims: append([]int(nil), dims...),
		Idx:  make([][]Index, len(dims)),
		Val:  make([]float64, 0, capacity),
	}
	for m := range t.Idx {
		t.Idx[m] = make([]Index, 0, capacity)
	}
	return t
}

// Order returns the number of modes.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored entries.
//
//spblock:hotpath
func (t *Tensor) NNZ() int { return len(t.Val) }

// Append adds a nonzero; coords must have one entry per mode.
func (t *Tensor) Append(coords []Index, v float64) {
	for m := range t.Idx {
		t.Idx[m] = append(t.Idx[m], coords[m])
	}
	t.Val = append(t.Val, v)
}

// Coord collects nonzero p's coordinates into dst (allocating when nil).
func (t *Tensor) Coord(p int, dst []Index) []Index {
	if dst == nil {
		dst = make([]Index, t.Order())
	}
	for m := range t.Idx {
		dst[m] = t.Idx[m][p]
	}
	return dst
}

// Validate checks dims, slice lengths and coordinate ranges.
func (t *Tensor) Validate() error {
	if t.Order() < 1 {
		return fmt.Errorf("%w: zero-order tensor", ErrBadTensor)
	}
	for m, d := range t.Dims {
		if d <= 0 {
			return fmt.Errorf("%w: mode %d has non-positive length %d", ErrBadTensor, m, d)
		}
		if len(t.Idx[m]) != t.NNZ() {
			return fmt.Errorf("%w: mode %d has %d coords for %d values",
				ErrBadTensor, m, len(t.Idx[m]), t.NNZ())
		}
	}
	for m, d := range t.Dims {
		if !inRange(t.Idx[m], d) {
			return t.firstBadCoord()
		}
	}
	return nil
}

// inRange reports whether every coordinate in col lies in [0, d). As
// uint32, a negative coordinate is at least 2^31, and no valid one is,
// so one unsigned max against min(d, 2^31) checks both ends.
func inRange(col []Index, d int) bool {
	var hi uint32
	for _, c := range col {
		hi = max(hi, uint32(c))
	}
	return len(col) == 0 || int64(hi) < min(int64(d), 1<<31)
}

// firstBadCoord reports the first out-of-range coordinate in entry-major
// order, the error a row-by-row scan gives. Validate calls it only once
// a column has failed.
func (t *Tensor) firstBadCoord() error {
	for p := 0; p < t.NNZ(); p++ {
		for m, d := range t.Dims {
			if c := t.Idx[m][p]; c < 0 || int(c) >= d {
				return fmt.Errorf("%w: entry %d mode %d coordinate %d outside [0,%d)",
					ErrBadTensor, p, m, c, d)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Dims, t.NNZ())
	for m := range t.Idx {
		c.Idx[m] = append(c.Idx[m], t.Idx[m]...)
	}
	c.Val = append(c.Val, t.Val...)
	return c
}

// NormSquared returns Σ v² over the values, in storage order.
func (t *Tensor) NormSquared() float64 {
	var s float64
	for _, v := range t.Val {
		s += v * v
	}
	return s
}

// Permute returns a view of t whose mode m is t's mode perm[m]: the
// dims and coordinate slices are reordered, the storage is shared.
// MTTKRP for mode n of t equals MTTKRP for mode 0 of the view with
// perm[0] = n (Sec. III-B).
func (t *Tensor) Permute(perm []int) (*Tensor, error) {
	if err := checkModeOrder(perm, t.Order()); err != nil {
		return nil, err
	}
	v := &Tensor{Dims: make([]int, len(perm)), Idx: make([][]Index, len(perm)), Val: t.Val}
	for m, p := range perm {
		v.Dims[m], v.Idx[m] = t.Dims[p], t.Idx[p]
	}
	return v, nil
}

// SortByModes sorts entries lexicographically by the given mode order
// (order[0] most significant; nil: the natural order 0..N-1) with the
// Builder's stable LSD counting sort, one linear pass per mode, so
// equal coordinates keep their input order. Each mode is keyed over the
// span its coordinates cover, so coordinates outside Dims sort too, as
// long as no mode's span is wider than both the longest mode and the
// nonzero count.
func (t *Tensor) SortByModes(order []int) error {
	perm, err := t.SortPerm(order)
	if perm == nil {
		return err
	}
	for m := range t.Idx {
		applied := make([]Index, len(perm))
		for i, p := range perm {
			applied[i] = t.Idx[m][p]
		}
		t.Idx[m] = applied
	}
	vals := make([]float64, len(perm))
	for i, p := range perm {
		vals[i] = t.Val[p]
	}
	t.Val = vals
	return nil
}

// SortPerm is SortByModes without the reordering: it leaves t as it is
// and returns the permutation that sorts it, perm[i] being the position
// of the i-th entry in order, or nil when t is already in order.
func (t *Tensor) SortPerm(order []int) ([]int32, error) {
	if t.Order() < 1 {
		return nil, fmt.Errorf("%w: zero-order tensor", ErrBadTensor)
	}
	if order == nil {
		order = make([]int, t.Order())
		for m := range order {
			order[m] = m
		}
	}
	if err := checkModeOrder(order, t.Order()); err != nil {
		return nil, err
	}
	n := t.NNZ()
	base := make([]Index, t.Order())
	ext := make([]int, t.Order())
	limit := max(slices.Max(t.Dims), n)
	for m, idx := range t.Idx {
		if len(idx) != n {
			return nil, fmt.Errorf("%w: mode %d has %d coords for %d values", ErrBadTensor, m, len(idx), n)
		}
		if n == 0 {
			continue
		}
		lo, hi := idx[0], idx[0]
		for _, c := range idx {
			lo, hi = min(lo, c), max(hi, c)
		}
		base[m], ext[m] = lo, int(hi)-int(lo)+1
		if ext[m] > limit {
			return nil, fmt.Errorf("%w: mode %d coordinates span [%d,%d], wider than %d",
				ErrBadTensor, m, lo, hi, limit)
		}
	}
	b := NewBuilder(t.Order(), n, slices.Max(ext))
	perm, _ := b.sortPerm(&Span{Idx: t.Idx, Val: t.Val, Base: base, Ext: ext}, order)
	return perm, nil
}

// Dedup sorts by the given mode order (default: the natural order
// 0..N-1) and merges duplicate coordinates, summing their values in
// input order. Returns the number of merged entries.
func (t *Tensor) Dedup(order ...int) (int, error) {
	if err := t.SortByModes(order); err != nil || t.NNZ() == 0 {
		return 0, err
	}
	w := 0
	for p := 1; p < t.NNZ(); p++ {
		same := true
		for m := range t.Idx {
			if t.Idx[m][p] != t.Idx[m][w] {
				same = false
				break
			}
		}
		if same {
			t.Val[w] += t.Val[p]
			continue
		}
		w++
		for m := range t.Idx {
			t.Idx[m][w] = t.Idx[m][p]
		}
		t.Val[w] = t.Val[p]
	}
	merged := t.NNZ() - (w + 1)
	for m := range t.Idx {
		t.Idx[m] = t.Idx[m][:w+1]
	}
	t.Val = t.Val[:w+1]
	return merged, nil
}

// DefaultModeOrder returns the CSF mode ordering for MTTKRP on
// `mode`: the output mode at the root, remaining modes by increasing
// length — short modes near the root maximise branch sharing, the
// standard SPLATT/CSF choice. Among modes of equal length the higher
// index comes first, so a cubic order-3 tensor gets the SPLATT tree
// for every output mode: (0,2,1), (1,2,0) and (2,1,0).
func DefaultModeOrder(dims []int, mode int) []int {
	rest := make([]int, 0, len(dims)-1)
	for m := range dims {
		if m != mode {
			rest = append(rest, m)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if dims[rest[a]] != dims[rest[b]] {
			return dims[rest[a]] < dims[rest[b]]
		}
		return rest[a] > rest[b]
	})
	return append([]int{mode}, rest...)
}
