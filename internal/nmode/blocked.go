package nmode

import (
	"fmt"
	"slices"

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
// order (nil = DefaultModeOrder for mode 0). A stable counting sort by
// block id groups the nonzeros; the one Builder then builds each
// block's tree from its group with block-local sort keys.
func BuildBlocked(t *Tensor, grid []int, modeOrder []int) (*BlockedTensor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return buildBlocked(t, grid, modeOrder)
}

// buildBlocked is BuildBlocked over a validated tensor; it still checks
// the grid and the mode order.
func buildBlocked(t *Tensor, grid []int, modeOrder []int) (*BlockedTensor, error) {
	n := t.Order()
	if len(grid) != n {
		return nil, fmt.Errorf("%w: grid %v for order-%d tensor", ErrBadTensor, grid, n)
	}
	if modeOrder == nil {
		modeOrder = DefaultModeOrder(t.Dims, 0)
	}
	if err := checkModeOrder(modeOrder, n); err != nil {
		return nil, err
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

	// Group positions by block id, stably: starts[id] .. starts[id+1]
	// is block id's range of byBlock.
	nnz := t.NNZ()
	blockOf := make([]int32, nnz)
	starts := make([]int32, total+1)
	for p := 0; p < nnz; p++ {
		id := 0
		for m := 0; m < n; m++ {
			id = id*grid[m] + int(t.Idx[m][p])/bt.BlockDims[m]
		}
		blockOf[p] = int32(id)
		starts[id+1]++
	}
	largest := int32(0)
	for id := 0; id < total; id++ {
		largest = max(largest, starts[id+1])
		starts[id+1] += starts[id]
	}
	byBlock := make([]int32, nnz)
	next := append([]int32(nil), starts[:total]...)
	for p, id := range blockOf {
		byBlock[next[id]] = int32(p)
		next[id]++
	}

	b := NewBuilder(n, int(largest), slices.Max(bt.BlockDims))
	span := Span{Idx: t.Idx, Val: t.Val, Base: make([]Index, n), Ext: bt.BlockDims}
	for id := 0; id < total; id++ {
		lo, hi := starts[id], starts[id+1]
		if lo == hi {
			continue
		}
		rem := id
		for m := n - 1; m >= 0; m-- {
			span.Base[m] = Index(rem % grid[m] * bt.BlockDims[m])
			rem /= grid[m]
		}
		span.Sel = byBlock[lo:hi]
		c := newTree(bt.Dims)
		b.Tree(c, &span, bt.ModeOrder)
		bt.Blocks[id] = c
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
