// Package tensor holds what is third-order by nature in the paper's
// analysis, over the order-N tensor and tree of internal/nmode: the
// SPLATT structure of Figure 1b (the CSF tree in SPLATTModeOrder), the
// Table II / Sec. IV shape statistics and the per-mode access
// profiles. Every tensor is an *nmode.Tensor; the paper restricts its
// analysis to 3-mode data (Sec. III-C notes the methodology extends
// trivially to higher order), so the functions here reject other
// orders. Mode indices are named i (mode-1), j (mode-2) and k
// (mode-3), matching Algorithm 1 of the paper.
package tensor

import (
	"fmt"
	"slices"

	"spblock/internal/nmode"
)

// SPLATTModeOrder returns the tree level order of the SPLATT structure:
// slices over mode 0, fibers over mode 2, leaves over mode 1. An
// order-3 tensor sorted in it is in fiber order (i, k, j).
func SPLATTModeOrder() []int { return []int{0, 2, 1} }

// Dedup merges t's duplicate coordinates, summing their values in
// input order (nmode's Tensor.Dedup), and leaves a third-order tensor
// in fiber order, every other order in the natural mode order. It is
// the storage order of generated and uploaded tensors: CP-APR's
// coordinate kernel reduces in it, so its results depend on it.
func Dedup(t *nmode.Tensor) (int, error) {
	if t.Order() == 3 {
		return t.Dedup(SPLATTModeOrder()...)
	}
	return t.Dedup()
}

// CheckOrder3 returns an error wrapping nmode.ErrBadTensor unless t is
// third-order: the entry check of the packages whose method is defined
// for order 3 only (the distributed grids, CP-APR, memoization, the
// cache traces and the Sec. V-C heuristic).
func CheckOrder3(t *nmode.Tensor) error {
	if t.Order() != 3 {
		return fmt.Errorf("%w: order-%d tensor where third order is required",
			nmode.ErrBadTensor, t.Order())
	}
	return nil
}

// CheckSPLATT returns an error unless c is an order-3 tree in
// SPLATTModeOrder: the layout the order-3 traffic traces and
// pressure-point kernels read.
func CheckSPLATT(c *nmode.CSF) error {
	if c.Order() != 3 || !slices.Equal(c.ModeOrder, SPLATTModeOrder()) {
		return fmt.Errorf("%w: order-%d tree in mode order %v, want order 3 in %v",
			nmode.ErrBadTensor, c.Order(), c.ModeOrder, SPLATTModeOrder())
	}
	return nil
}

// Stats summarises a third-order tensor's shape, in the vocabulary of
// Table II and the Sec. IV byte model.
type Stats struct {
	Dims           []int
	NNZ            int
	Fibers         int
	Density        float64
	AvgFiberLength float64
	COOBytes       int64 // paper model: 32 * nnz
	SPLATTBytes    int64 // paper model: 16 + 8I + 16F + 16nnz
}

// ComputeStats gathers Stats for a third-order tensor. Fibers counts
// the distinct non-empty (i, k) mode-2 fibers; t need not be sorted and
// is not modified.
func ComputeStats(t *nmode.Tensor) (Stats, error) {
	if err := CheckOrder3(t); err != nil {
		return Stats{}, err
	}
	perm, err := t.SortPerm(SPLATTModeOrder())
	if err != nil {
		return Stats{}, err
	}
	nnz := t.NNZ()
	f := 0
	prev := -1
	for q := range nnz {
		p := q
		if perm != nil {
			p = int(perm[q])
		}
		if prev < 0 || t.Idx[0][p] != t.Idx[0][prev] || t.Idx[2][p] != t.Idx[2][prev] {
			f++
		}
		prev = p
	}
	s := Stats{
		Dims:        slices.Clone(t.Dims),
		NNZ:         nnz,
		Fibers:      f,
		COOBytes:    32 * int64(nnz),
		SPLATTBytes: 16 + 8*int64(t.Dims[0]) + 16*int64(f) + 16*int64(nnz),
	}
	if vol := volume(t.Dims); vol > 0 {
		s.Density = float64(nnz) / vol
	}
	if f > 0 {
		s.AvgFiberLength = float64(nnz) / float64(f)
	}
	return s, nil
}

// volume returns the product of the mode lengths as a float64 (the
// integer product overflows for paper-scale shapes such as Amazon's
// 4.8M x 1.8M x 1.8M), or 0 when a length is not positive.
func volume(dims []int) float64 {
	v := 1.0
	for _, d := range dims {
		if d <= 0 {
			return 0
		}
		v *= float64(d)
	}
	return v
}

// FormatDims renders a shape as IxJxK.
func FormatDims(dims []int) string {
	var b []byte
	for m, d := range dims {
		if m > 0 {
			b = append(b, 'x')
		}
		b = fmt.Appendf(b, "%d", d)
	}
	return string(b)
}

func (s Stats) String() string {
	return fmt.Sprintf("%s nnz=%d fibers=%d density=%.3g avgFiber=%.2f",
		FormatDims(s.Dims), s.NNZ, s.Fibers, s.Density, s.AvgFiberLength)
}
