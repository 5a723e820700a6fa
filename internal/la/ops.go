package la

import "fmt"

// Hadamard computes the element-wise product c = a .* b into a new
// matrix. Shapes must match.
func Hadamard(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("la: Hadamard shape mismatch %dx%d vs %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		ra, rb, rc := a.Row(i), b.Row(i), c.Row(i)
		for j := range rc {
			rc[j] = ra[j] * rb[j]
		}
	}
	return c
}

// HadamardInPlace computes a .*= b.
//
//spblock:hotpath
func HadamardInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("la: HadamardInPlace shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			ra[j] *= rb[j]
		}
	}
}

// MatMul computes C = A·B with fresh storage.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("la: MatMul inner dim mismatch %d vs %d", a.Cols, b.Rows))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ra, rc := a.Row(i), c.Row(i)
		for k, av := range ra {
			if av == 0 {
				continue
			}
			rb := b.Row(k)
			for j := range rc {
				rc[j] += av * rb[j]
			}
		}
	}
	return c
}

// KhatriRao computes the column-wise Kronecker product K = B ⊙ C of a
// J x R and a K x R matrix, producing a (J*K) x R matrix where row
// (j*K + k) is the Hadamard product of B's row j and C's row k.
//
// This is the explicit product the paper describes in Sec. III-B; real
// MTTKRP kernels never materialise it, so this implementation exists as
// the test oracle behind core.Reference.
func KhatriRao(b, c *Matrix) *Matrix {
	if b.Cols != c.Cols {
		panic(fmt.Sprintf("la: KhatriRao rank mismatch %d vs %d", b.Cols, c.Cols))
	}
	r := b.Cols
	k := NewMatrix(b.Rows*c.Rows, r)
	for j := 0; j < b.Rows; j++ {
		rb := b.Row(j)
		for kk := 0; kk < c.Rows; kk++ {
			rc := c.Row(kk)
			out := k.Row(j*c.Rows + kk)
			for q := 0; q < r; q++ {
				out[q] = rb[q] * rc[q]
			}
		}
	}
	return k
}

// Dot returns the Frobenius inner product Σ a[i][j]*b[i][j].
func Dot(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("la: Dot shape mismatch")
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			s += ra[j] * rb[j]
		}
	}
	return s
}
