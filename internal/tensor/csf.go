package tensor

import (
	"fmt"
	"slices"

	"spblock/internal/nmode"
)

// CSF is the SPLATT storage of Figure 1b: nonzeros grouped into mode-2
// fibers (fixed i and k, varying j), fibers grouped into slices
// (fixed i).
//
// Unlike the figure, which keeps an i_pointer entry for every row, we
// store only non-empty slices together with their row ids. For the
// full tensors of the paper the two are equivalent (the paper ignores
// i_pointer traffic in its byte model because it is negligible); for
// the sub-tensors produced by multi-dimensional blocking, compressing
// empty slices is essential because each block sees only a fraction of
// the rows.
type CSF struct {
	Dims Dims

	// SliceID[s] is the mode-1 coordinate of slice s; slices are in
	// increasing order. len(SliceID) == number of non-empty slices.
	SliceID []Index
	// SlicePtr[s] .. SlicePtr[s+1] is the fiber range of slice s.
	SlicePtr []int32
	// FiberK[f] is the mode-3 coordinate shared by fiber f's nonzeros.
	FiberK []Index
	// FiberPtr[f] .. FiberPtr[f+1] is the nonzero range of fiber f.
	FiberPtr []int32
	// NzJ[p] is the mode-2 coordinate of nonzero p.
	NzJ []Index
	// Val[p] is the value of nonzero p.
	Val []float64
}

// NNZ returns the number of stored nonzeros.
func (c *CSF) NNZ() int { return len(c.Val) }

// NumFibers returns the number of non-empty mode-2 fibers.
func (c *CSF) NumFibers() int { return len(c.FiberK) }

// NumSlices returns the number of non-empty mode-1 slices.
//
//spblock:hotpath
func (c *CSF) NumSlices() int { return len(c.SliceID) }

// MemoryBytes reports the actual in-memory footprint of this structure
// (4-byte indices/pointers, 8-byte values).
func (c *CSF) MemoryBytes() int64 {
	return int64(4*(len(c.SliceID)+len(c.SlicePtr)+len(c.FiberK)+len(c.FiberPtr)+len(c.NzJ)) +
		8*len(c.Val))
}

// PaperMemoryBytes reports the paper's Sec. III-C byte model for the
// SPLATT format, 16 + 8·I + 16·F + 16·nnz, which assumes 64-bit indices
// and a dense i_pointer array.
func (c *CSF) PaperMemoryBytes() int64 {
	return 16 + 8*int64(c.Dims[0]) + 16*int64(c.NumFibers()) + 16*int64(c.NNZ())
}

// BuildCSF converts a COO tensor into the SPLATT structure: the
// order-3 nmode tree with mode order (0, 2, 1), built by the one
// nmode.Builder and relabelled by FromNModeCSF without copying. The
// input is not modified and is not re-sorted when already in fiber
// order. Duplicate coordinates are kept as distinct nonzeros, in input
// order (run Dedup first if that matters).
func BuildCSF(t *COO) (*CSF, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// The Builder directly, not nmode.Build, so the tensor is validated
	// once.
	x := ToNMode(t)
	c := &nmode.CSF{Dims: x.Dims, ID: make([][]nmode.Index, 3), Ptr: make([][]int32, 2)}
	b := nmode.NewBuilder(3, t.NNZ(), slices.Max(x.Dims))
	b.Tree(c, &nmode.Span{Idx: x.Idx, Val: x.Val, Ext: x.Dims}, SPLATTModeOrder())
	return FromNModeCSF(c), nil
}

// ToCOO expands the structure back to coordinate format in fiber-sorted
// order.
func (c *CSF) ToCOO() *COO {
	out := NewCOO(c.Dims, c.NNZ())
	for s := 0; s < c.NumSlices(); s++ {
		i := c.SliceID[s]
		for f := c.SlicePtr[s]; f < c.SlicePtr[s+1]; f++ {
			k := c.FiberK[f]
			for p := c.FiberPtr[f]; p < c.FiberPtr[f+1]; p++ {
				out.Append(i, c.NzJ[p], k, c.Val[p])
			}
		}
	}
	return out
}

// Validate checks the structural invariants of the CSF layout:
// monotone pointers, sorted slice ids, sorted fiber keys within each
// slice, sorted j within each fiber, and in-range coordinates.
func (c *CSF) Validate() error {
	if !c.Dims.Valid() {
		return fmt.Errorf("%w: non-positive dims %v", ErrBadTensor, c.Dims)
	}
	s := c.NumSlices()
	if len(c.SlicePtr) != s+1 {
		return fmt.Errorf("%w: SlicePtr length %d, want %d", ErrBadTensor, len(c.SlicePtr), s+1)
	}
	f := c.NumFibers()
	if len(c.FiberPtr) != f+1 {
		return fmt.Errorf("%w: FiberPtr length %d, want %d", ErrBadTensor, len(c.FiberPtr), f+1)
	}
	if len(c.NzJ) != len(c.Val) {
		return fmt.Errorf("%w: NzJ/Val length mismatch", ErrBadTensor)
	}
	if c.SlicePtr[0] != 0 || int(c.SlicePtr[s]) != f {
		return fmt.Errorf("%w: SlicePtr does not span fibers", ErrBadTensor)
	}
	if c.FiberPtr[0] != 0 || int(c.FiberPtr[f]) != c.NNZ() {
		return fmt.Errorf("%w: FiberPtr does not span nonzeros", ErrBadTensor)
	}
	for x := 0; x < s; x++ {
		if c.SliceID[x] < 0 || int(c.SliceID[x]) >= c.Dims[0] {
			return fmt.Errorf("%w: slice id %d out of range", ErrBadTensor, c.SliceID[x])
		}
		if x > 0 && c.SliceID[x] <= c.SliceID[x-1] {
			return fmt.Errorf("%w: slice ids not strictly increasing at %d", ErrBadTensor, x)
		}
		if c.SlicePtr[x] >= c.SlicePtr[x+1] {
			return fmt.Errorf("%w: empty slice %d stored", ErrBadTensor, x)
		}
		for y := c.SlicePtr[x]; y < c.SlicePtr[x+1]; y++ {
			if c.FiberK[y] < 0 || int(c.FiberK[y]) >= c.Dims[2] {
				return fmt.Errorf("%w: fiber k %d out of range", ErrBadTensor, c.FiberK[y])
			}
			if y > c.SlicePtr[x] && c.FiberK[y] <= c.FiberK[y-1] {
				return fmt.Errorf("%w: fiber keys not increasing in slice %d", ErrBadTensor, x)
			}
			if c.FiberPtr[y] >= c.FiberPtr[y+1] {
				return fmt.Errorf("%w: empty fiber %d stored", ErrBadTensor, y)
			}
			for p := c.FiberPtr[y]; p < c.FiberPtr[y+1]; p++ {
				if c.NzJ[p] < 0 || int(c.NzJ[p]) >= c.Dims[1] {
					return fmt.Errorf("%w: j index %d out of range", ErrBadTensor, c.NzJ[p])
				}
				if p > c.FiberPtr[y] && c.NzJ[p] < c.NzJ[p-1] {
					return fmt.Errorf("%w: j indices not sorted in fiber %d", ErrBadTensor, y)
				}
			}
		}
	}
	return nil
}

// AvgFiberLength returns nnz / fibers, the quantity that controls how
// much work the SPLATT format saves over COO (Sec. III-C: "the more
// nonzeros there are in the fiber, the more computation and data
// movement can be saved").
func (c *CSF) AvgFiberLength() float64 {
	if c.NumFibers() == 0 {
		return 0
	}
	return float64(c.NNZ()) / float64(c.NumFibers())
}
