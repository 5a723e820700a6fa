package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by CholeskyDecompose when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("la: matrix is not symmetric positive definite")

// Gram computes G = Aᵀ·A, an R x R symmetric matrix where R = A.Cols.
// This is the building block of the CP-ALS normal equations.
func Gram(a *Matrix) *Matrix {
	r := a.Cols
	g := NewMatrix(r, r)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < r; p++ {
			vp := row[p]
			if vp == 0 {
				continue
			}
			grow := g.Row(p)
			for q := p; q < r; q++ {
				grow[q] += vp * row[q]
			}
		}
	}
	// Mirror the upper triangle.
	for p := 0; p < r; p++ {
		for q := p + 1; q < r; q++ {
			g.Set(q, p, g.At(p, q))
		}
	}
	return g
}

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

// CholeskyDecompose factors the SPD matrix a = L·Lᵀ in place on a copy
// and returns the lower-triangular factor L (entries above the diagonal
// are zero). Returns ErrNotSPD when a pivot is not strictly positive.
func CholeskyDecompose(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := a.Clone()
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	// Zero the strictly-upper triangle so L is a clean factor.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	return l, nil
}

// SolveSPD solves X·A = B for X, where A is R x R symmetric positive
// definite and B is M x R; the solution overwrites B. This is the
// factor-matrix update of CP-ALS: Anew = MTTKRP · (V)⁻¹ with V the
// Hadamard product of Gram matrices. A ridge term eps*I is added when
// the plain factorisation fails, which keeps ALS running on rank
// deficient iterates.
func SolveSPD(a, b *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: SolveSPD needs square A, got %dx%d", a.Rows, a.Cols)
	}
	if b.Cols != a.Rows {
		return fmt.Errorf("la: SolveSPD dim mismatch: B is %dx%d, A is %dx%d",
			b.Rows, b.Cols, a.Rows, a.Cols)
	}
	l, err := CholeskyDecompose(a)
	if err != nil {
		// Ridge fallback: scale with the diagonal magnitude.
		var trace float64
		for i := 0; i < a.Rows; i++ {
			trace += math.Abs(a.At(i, i))
		}
		eps := 1e-12*trace + 1e-300
		for attempt := 0; attempt < 40 && err != nil; attempt++ {
			reg := a.Clone()
			for i := 0; i < reg.Rows; i++ {
				reg.Set(i, i, reg.At(i, i)+eps)
			}
			l, err = CholeskyDecompose(reg)
			eps *= 10
		}
		if err != nil {
			return err
		}
	}
	// Solve x·L·Lᵀ = b row by row: first y·Lᵀ = b (forward in the
	// transposed sense), then x·L = y.
	n := a.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Row(i)
		// y = row · L⁻ᵀ  (forward substitution on Lᵀ from the left is
		// forward substitution on columns of L): y[j] = (row[j] - Σ_{k<j} y[k]·L[j][k]) / L[j][j]
		for j := 0; j < n; j++ {
			s := row[j]
			lj := l.Row(j)
			for k := 0; k < j; k++ {
				s -= row[k] * lj[k]
			}
			row[j] = s / lj[j]
		}
		// x = y · L⁻¹: x[j] = (y[j] - Σ_{k>j} x[k]·L[k][j]) / L[j][j]
		for j := n - 1; j >= 0; j-- {
			s := row[j]
			for k := j + 1; k < n; k++ {
				s -= row[k] * l.At(k, j)
			}
			row[j] = s / l.At(j, j)
		}
	}
	return nil
}

// ColumnNorms returns the Euclidean norm of each column of a.
func ColumnNorms(a *Matrix) []float64 {
	norms := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		r := a.Row(i)
		for j := range r {
			norms[j] += r[j] * r[j]
		}
	}
	for j := range norms {
		norms[j] = math.Sqrt(norms[j])
	}
	return norms
}

// NormalizeColumns scales each column of a to unit norm and returns the
// original norms (zero-norm columns are left untouched and report 0).
func NormalizeColumns(a *Matrix) []float64 {
	norms := ColumnNorms(a)
	for i := 0; i < a.Rows; i++ {
		r := a.Row(i)
		for j := range r {
			if norms[j] > 0 {
				r[j] /= norms[j]
			}
		}
	}
	return norms
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
