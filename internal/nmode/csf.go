package nmode

import (
	"fmt"
	"slices"
)

// CSF is the order-N compressed sparse fiber structure: an N-level
// tree. Level 0 holds the (compressed) root slices in ModeOrder[0];
// each deeper level holds the distinct child ids beneath each parent;
// the leaf level carries one id and one value per nonzero.
//
// For N = 3 with ModeOrder (i, k, j) this is exactly the SPLATT
// structure of Figure 1b: ID[0] = slice ids, ID[1] = k_index,
// Ptr[1] = k_pointer, ID[2] = j_index.
type CSF struct {
	Dims      []int
	ModeOrder []int
	// ID[d] are the ids at level d (coordinates in mode ModeOrder[d]).
	ID [][]Index
	// Ptr[d] (for d < N-1) gives the child range of each level-d node:
	// children of node x are ID[d+1][Ptr[d][x] : Ptr[d][x+1]].
	Ptr [][]int32
	// Val[p] is the value of leaf p.
	Val []float64
}

// Order returns the number of modes.
//
//spblock:hotpath
func (c *CSF) Order() int { return len(c.Dims) }

// NNZ returns the number of leaves.
//
//spblock:hotpath
func (c *CSF) NNZ() int { return len(c.Val) }

// NumNodes returns the node count at level d.
//
//spblock:hotpath
func (c *CSF) NumNodes(d int) int { return len(c.ID[d]) }

// MemoryBytes reports the in-memory footprint (4-byte ids/pointers,
// 8-byte values).
func (c *CSF) MemoryBytes() int64 {
	var s int64
	for d := range c.ID {
		s += 4 * int64(len(c.ID[d]))
	}
	for d := range c.Ptr {
		s += 4 * int64(len(c.Ptr[d]))
	}
	return s + 8*int64(len(c.Val))
}

// Build converts t into CSF form with the given mode order (defaulting
// to DefaultModeOrder for mode 0 when nil), through the one Builder.
// The input is not modified, and every level array is exactly sized.
func Build(t *Tensor, modeOrder []int) (*CSF, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if modeOrder == nil {
		modeOrder = DefaultModeOrder(t.Dims, 0)
	}
	if err := checkModeOrder(modeOrder, t.Order()); err != nil {
		return nil, err
	}
	return build(t, modeOrder), nil
}

// build is Build over a validated tensor and mode order.
func build(t *Tensor, modeOrder []int) *CSF {
	c := newTree(append([]int(nil), t.Dims...))
	b := NewBuilder(t.Order(), t.NNZ(), slices.Max(t.Dims))
	b.Tree(c, &Span{Idx: t.Idx, Val: t.Val, Ext: t.Dims}, append([]int(nil), modeOrder...))
	return c
}

// Validate checks the tree invariants: consistent level sizes, monotone
// pointers spanning the next level, in-range ids.
func (c *CSF) Validate() error {
	n := c.Order()
	if n < 1 || len(c.ID) != n || len(c.Ptr) != n-1 {
		return fmt.Errorf("%w: malformed CSF levels", ErrBadTensor)
	}
	if len(c.ModeOrder) != n {
		return fmt.Errorf("%w: mode order length %d", ErrBadTensor, len(c.ModeOrder))
	}
	for d := 0; d < n; d++ {
		dim := c.Dims[c.ModeOrder[d]]
		for _, id := range c.ID[d] {
			if id < 0 || int(id) >= dim {
				return fmt.Errorf("%w: level %d id %d outside [0,%d)", ErrBadTensor, d, id, dim)
			}
		}
	}
	for d := 0; d < n-1; d++ {
		ptr := c.Ptr[d]
		if len(ptr) != len(c.ID[d])+1 {
			return fmt.Errorf("%w: level %d pointer length %d for %d nodes",
				ErrBadTensor, d, len(ptr), len(c.ID[d]))
		}
		if len(ptr) > 0 && (ptr[0] != 0 || int(ptr[len(ptr)-1]) != len(c.ID[d+1])) {
			return fmt.Errorf("%w: level %d pointers do not span level %d", ErrBadTensor, d, d+1)
		}
		for x := 1; x < len(ptr); x++ {
			if ptr[x] < ptr[x-1] {
				return fmt.Errorf("%w: level %d pointers not monotone", ErrBadTensor, d)
			}
		}
	}
	if len(c.ID[n-1]) != len(c.Val) {
		return fmt.Errorf("%w: %d leaf ids for %d values", ErrBadTensor, len(c.ID[n-1]), len(c.Val))
	}
	return nil
}

// ToTensor expands the CSF back to coordinate form.
func (c *CSF) ToTensor() *Tensor {
	t := NewTensor(c.Dims, c.NNZ())
	n := c.Order()
	coords := make([]Index, n)
	var walk func(d int, node int32)
	walk = func(d int, node int32) {
		coords[c.ModeOrder[d]] = c.ID[d][node]
		if d == n-1 {
			t.Append(coords, c.Val[node])
			return
		}
		for ch := c.Ptr[d][node]; ch < c.Ptr[d][node+1]; ch++ {
			walk(d+1, ch)
		}
	}
	for root := 0; root < c.NumNodes(0); root++ {
		walk(0, int32(root))
	}
	return t
}
