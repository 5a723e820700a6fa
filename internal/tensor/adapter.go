package tensor

import (
	"fmt"

	"spblock/internal/nmode"
)

// FromNMode returns a third-order COO view of t that shares t's
// coordinate and value storage (nmode.Index and tensor.Index are the
// same type, so no element is copied). Mutating either tensor's
// entries is visible through both.
func FromNMode(t *nmode.Tensor) (*COO, error) {
	if t.Order() != 3 {
		return nil, fmt.Errorf("%w: order-%d tensor where third order is required",
			ErrBadTensor, t.Order())
	}
	return fromView(t), nil
}

// fromView is FromNMode for a tensor known to be third-order.
func fromView(t *nmode.Tensor) *COO {
	return &COO{
		Dims: Dims{t.Dims[0], t.Dims[1], t.Dims[2]},
		I:    t.Idx[0],
		J:    t.Idx[1],
		K:    t.Idx[2],
		Val:  t.Val,
	}
}

// ToNMode returns an order-N view of t sharing its storage — the
// inverse of FromNMode.
func ToNMode(t *COO) *nmode.Tensor {
	return &nmode.Tensor{
		Dims: []int{t.Dims[0], t.Dims[1], t.Dims[2]},
		Idx:  [][]nmode.Index{t.I, t.J, t.K},
		Val:  t.Val,
	}
}

// SPLATTModeOrder returns the tree level order of the SPLATT structure:
// slices over mode 0, fibers over mode 2, leaves over mode 1.
func SPLATTModeOrder() []int { return []int{0, 2, 1} }
