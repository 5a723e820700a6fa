package core

import (
	"fmt"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// BlockedTensor is the multi-dimensionally blocked representation of
// Sec. V-A (Figure 3a): the index space is cut into Grid[0] x Grid[1] x
// Grid[2] axis-aligned blocks and the nonzeros of each block are stored
// contiguously in their own SPLATT structure. Coordinates stay global,
// so the factor matrices need no reindexing — the locality win comes
// purely from confining each block's factor-row working set. The
// executors run their own order-N layout (nmode.BlockedTensor); this
// order-3 view is what the cache simulator and the autotuner's cost
// model trace.
type BlockedTensor struct {
	Dims      tensor.Dims
	Grid      [3]int
	BlockDims [3]int // ceil(dim/grid) per mode

	// Blocks is indexed (bi*Grid[1]+bj)*Grid[2]+bk; empty blocks are nil.
	Blocks []*tensor.CSF

	nnz int
}

// BuildBlocked reorganises t into grid blocks. The input is unchanged.
// This is the "very little data rearrangement" preprocessing the paper
// contrasts with hypergraph reordering: nmode.BuildBlocked groups the
// nonzeros by block with one stable counting sort and builds each
// block's tree with SPLATTModeOrder; each block here is that tree
// relabelled by tensor.FromNModeCSF. The flat block ids agree between
// the two packages, and grids of more than 2^22 blocks are rejected.
func BuildBlocked(t *tensor.COO, grid [3]int) (*BlockedTensor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for m := 0; m < 3; m++ {
		if grid[m] < 1 {
			return nil, fmt.Errorf("core: grid[%d] = %d, must be >= 1", m, grid[m])
		}
		if grid[m] > t.Dims[m] {
			return nil, fmt.Errorf("core: grid[%d] = %d exceeds mode length %d",
				m, grid[m], t.Dims[m])
		}
	}
	nb, err := nmode.BuildBlocked(tensor.ToNMode(t), grid[:], tensor.SPLATTModeOrder())
	if err != nil {
		return nil, err
	}
	bt := &BlockedTensor{
		Dims:      t.Dims,
		Grid:      grid,
		BlockDims: [3]int{nb.BlockDims[0], nb.BlockDims[1], nb.BlockDims[2]},
		Blocks:    make([]*tensor.CSF, len(nb.Blocks)),
		nnz:       t.NNZ(),
	}
	for id, blk := range nb.Blocks {
		if blk != nil {
			bt.Blocks[id] = tensor.FromNModeCSF(blk)
		}
	}
	return bt, nil
}

// BlockAt returns the CSF of block (bi, bj, bk), or nil when empty.
//
//spblock:hotpath
func (bt *BlockedTensor) BlockAt(bi, bj, bk int) *tensor.CSF {
	return bt.Blocks[(bi*bt.Grid[1]+bj)*bt.Grid[2]+bk]
}

// NNZ returns the total nonzeros across blocks.
func (bt *BlockedTensor) NNZ() int { return bt.nnz }

// NumBlocks returns the count of non-empty blocks.
func (bt *BlockedTensor) NumBlocks() int {
	n := 0
	for _, b := range bt.Blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// MemoryBytes sums the in-memory footprint of all block structures —
// the storage overhead of blocking (more fibers and slices are stored
// because fibers are split at block boundaries).
func (bt *BlockedTensor) MemoryBytes() int64 {
	var s int64
	for _, b := range bt.Blocks {
		if b != nil {
			s += b.MemoryBytes()
		}
	}
	return s
}

// FactorAccessCounts returns how many times each factor matrix is
// streamed in full under this grid (Sec. V-A): A is touched NB·NC
// times, B NA·NC times, C NA·NB times.
func (bt *BlockedTensor) FactorAccessCounts() [3]int {
	return [3]int{
		bt.Grid[1] * bt.Grid[2],
		bt.Grid[0] * bt.Grid[2],
		bt.Grid[0] * bt.Grid[1],
	}
}
