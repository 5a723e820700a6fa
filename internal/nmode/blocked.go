package nmode

import (
	"fmt"

	"spblock/internal/la"
)

// BlockedTensor generalises Sec. V-A's multi-dimensional blocking to
// order-N data: the index space is cut into Grid[0] x ... x Grid[N-1]
// axis-aligned blocks, each stored as its own CSF tree over global
// coordinates.
type BlockedTensor struct {
	Dims      []int
	Grid      []int
	BlockDims []int
	ModeOrder []int
	// Blocks is indexed by the row-major flattening of the block
	// coordinates; empty blocks are nil.
	Blocks []*CSF

	nnz int
}

// BuildBlocked reorganises t into grid blocks using the given CSF mode
// order (nil = DefaultModeOrder for mode 0).
func BuildBlocked(t *Tensor, grid []int, modeOrder []int) (*BlockedTensor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.Order()
	if len(grid) != n {
		return nil, fmt.Errorf("%w: grid %v for order-%d tensor", ErrBadTensor, grid, n)
	}
	if modeOrder == nil {
		modeOrder = DefaultModeOrder(t.Dims, 0)
	}
	bt := &BlockedTensor{
		Dims:      append([]int(nil), t.Dims...),
		Grid:      append([]int(nil), grid...),
		BlockDims: make([]int, n),
		ModeOrder: append([]int(nil), modeOrder...),
		nnz:       t.NNZ(),
	}
	total := 1
	for m := 0; m < n; m++ {
		if grid[m] < 1 || grid[m] > t.Dims[m] {
			return nil, fmt.Errorf("%w: grid[%d] = %d outside [1,%d]", ErrBadTensor, m, grid[m], t.Dims[m])
		}
		bt.BlockDims[m] = (t.Dims[m] + grid[m] - 1) / grid[m]
		total *= grid[m]
	}
	if total > 1<<22 {
		return nil, fmt.Errorf("%w: %d blocks is unreasonable", ErrBadTensor, total)
	}
	bt.Blocks = make([]*CSF, total)

	// Bucket nonzeros by block id.
	buckets := make([]*Tensor, total)
	coords := make([]Index, n)
	for p := 0; p < t.NNZ(); p++ {
		id := 0
		for m := 0; m < n; m++ {
			id = id*grid[m] + int(t.Idx[m][p])/bt.BlockDims[m]
		}
		if buckets[id] == nil {
			buckets[id] = NewTensor(t.Dims, 16)
		}
		buckets[id].Append(t.Coord(p, coords), t.Val[p])
	}
	for id, b := range buckets {
		if b == nil {
			continue
		}
		csf, err := Build(b, modeOrder)
		if err != nil {
			return nil, err
		}
		bt.Blocks[id] = csf
	}
	return bt, nil
}

// NNZ returns the total nonzero count.
//
//spblock:hotpath
func (bt *BlockedTensor) NNZ() int { return bt.nnz }

// NumBlocks returns the number of non-empty blocks.
func (bt *BlockedTensor) NumBlocks() int {
	c := 0
	for _, b := range bt.Blocks {
		if b != nil {
			c++
		}
	}
	return c
}

// MTTKRP runs the blocked N-mode product for the root mode
// ModeOrder[0]: it builds an Executor over the blocks and runs it
// once. Blocks sharing a root-mode block coordinate share output rows,
// so workers claim whole root-mode layers and walk a layer's blocks in
// block order — the same per-row accumulation order as a sequential
// walk over all blocks.
func (bt *BlockedTensor) MTTKRP(factors []*la.Matrix, out *la.Matrix, opts Options) error {
	return runOnce(bt.Dims, bt.ModeOrder[0], opts, nil, bt, factors, out)
}
