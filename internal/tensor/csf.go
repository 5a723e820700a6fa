package tensor

import (
	"fmt"
	"slices"

	"spblock/internal/nmode"
)

// BuildCSF converts a COO tensor into the SPLATT structure of Figure 1b:
// the order-3 nmode tree with SPLATTModeOrder, so ID[0] holds the
// non-empty slice ids (mode 0), ID[1] and Ptr[1] the mode-2 fibers
// (fixed i and k, varying j), and ID[2] the mode-1 leaf ids. Unlike the
// figure, which keeps an i_pointer entry for every row, only non-empty
// slices are stored — essential for the sub-tensors of MB blocking,
// where each block sees a fraction of the rows. The input is not
// modified and is not re-sorted when already in fiber order. Duplicate
// coordinates are kept as distinct nonzeros, in input order (run Dedup
// first if that matters).
func BuildCSF(t *COO) (*nmode.CSF, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// The Builder directly, not nmode.Build, so the tensor is validated
	// once.
	x := ToNMode(t)
	c := &nmode.CSF{Dims: x.Dims, ID: make([][]nmode.Index, 3), Ptr: make([][]int32, 2)}
	b := nmode.NewBuilder(3, t.NNZ(), slices.Max(x.Dims))
	b.Tree(c, &nmode.Span{Idx: x.Idx, Val: x.Val, Ext: x.Dims}, SPLATTModeOrder())
	return c, nil
}

// BuildBlocked reorganises t into the grid blocks of Sec. V-A
// (Figure 3a), each block a SPLATT tree over global coordinates. The
// input is unchanged; grids outside [1, dim] per mode, or of more than
// 2^22 blocks, are rejected.
func BuildBlocked(t *COO, grid [3]int) (*nmode.BlockedTensor, error) {
	return nmode.BuildBlocked(ToNMode(t), grid[:], SPLATTModeOrder())
}

// CheckSPLATT returns an error unless c is an order-3 tree in
// SPLATTModeOrder: the layout the order-3 traffic traces and
// pressure-point kernels read.
func CheckSPLATT(c *nmode.CSF) error {
	if c.Order() != 3 || !slices.Equal(c.ModeOrder, SPLATTModeOrder()) {
		return fmt.Errorf("%w: order-%d tree in mode order %v, want order 3 in %v",
			ErrBadTensor, c.Order(), c.ModeOrder, SPLATTModeOrder())
	}
	return nil
}
