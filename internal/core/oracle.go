package core

import (
	"fmt"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Reference computes the mode-1 MTTKRP by explicitly materialising the
// Khatri-Rao product B ⊙ C and multiplying the matricised tensor
// against it — the textbook definition A = X₍₁₎·(B ⊙ C) of Sec. III-B.
// It allocates a dense (J·K)×R matrix and exists purely as a
// correctness oracle for the real kernels; the paper notes this is
// "prohibitively expensive" at scale, so it refuses shapes where the
// product would exceed ~64 M entries.
func Reference(t *nmode.Tensor, b, c, out *la.Matrix) error {
	if err := tensor.CheckOrder3(t); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if err := validateOperands(t.Dims, b, c, out); err != nil {
		return err
	}
	if float64(b.Rows)*float64(c.Rows)*float64(b.Cols) > 64e6 {
		return fmt.Errorf("core: Reference refuses %dx%d Khatri-Rao product (oracle only)",
			b.Rows*c.Rows, b.Cols)
	}
	kr := la.KhatriRao(b, c)
	out.Zero()
	kDim := c.Rows
	for p := 0; p < t.NNZ(); p++ {
		v := t.Val[p]
		krRow := kr.Row(int(t.Idx[1][p])*kDim + int(t.Idx[2][p]))
		orow := out.Row(int(t.Idx[0][p]))
		for q := range orow {
			orow[q] += v * krRow[q]
		}
	}
	return nil
}

// validateOperands checks the factor shapes against the tensor dims.
//
//spblock:coldpath
func validateOperands(dims []int, b, c, out *la.Matrix) error {
	if b.Cols != c.Cols || b.Cols != out.Cols {
		return fmt.Errorf("core: rank mismatch: B has %d cols, C %d, out %d",
			b.Cols, c.Cols, out.Cols)
	}
	if b.Cols == 0 {
		return fmt.Errorf("core: rank must be positive")
	}
	if out.Rows != dims[0] {
		return fmt.Errorf("core: out has %d rows, tensor mode-1 length is %d", out.Rows, dims[0])
	}
	if b.Rows != dims[1] {
		return fmt.Errorf("core: B has %d rows, tensor mode-2 length is %d", b.Rows, dims[1])
	}
	if c.Rows != dims[2] {
		return fmt.Errorf("core: C has %d rows, tensor mode-3 length is %d", c.Rows, dims[2])
	}
	return nil
}
