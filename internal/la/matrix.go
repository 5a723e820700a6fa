// Package la provides the small dense linear-algebra substrate used by
// the MTTKRP kernels and the CP-ALS decomposition: row-major matrices,
// Gram products, Hadamard products, Cholesky solves and the explicit
// Khatri-Rao product used as a test oracle.
//
// Matrices here are deliberately simple: factor matrices in tensor
// decompositions are tall and narrow (I x R with R <= a few thousand),
// so a flat row-major []float64 with an explicit stride is both the
// fastest and the clearest representation.
package la

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. Element (i, j) is stored at
// Data[i*Stride+j]. Stride >= Cols; kernels that process rank blocks
// keep Stride equal to the full rank while viewing a column strip.
type Matrix struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// NewMatrix allocates a zeroed rows x cols matrix with Stride == cols.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{
		Rows:   rows,
		Cols:   cols,
		Stride: cols,
		Data:   make([]float64, rows*cols),
	}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns the i-th row as a slice sharing the matrix storage.
// Only the first Cols entries are meaningful.
//
//spblock:hotpath
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// Zero sets every element to zero.
//
//spblock:hotpath
func (m *Matrix) Zero() {
	if m.Stride == m.Cols {
		clear(m.Data[:m.Rows*m.Cols])
		return
	}
	for i := 0; i < m.Rows; i++ {
		clear(m.Row(i))
	}
}

// Clone returns a deep copy with a compact stride.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// CopyFrom copies src into m. Shapes must match.
//
//spblock:hotpath
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("la: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols)) //spblock:allow shape-mismatch panic, a bug in the caller
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// ColumnView returns a matrix sharing m's storage that exposes columns
// [lo, hi). The view keeps m's stride, so row slices remain contiguous
// within the parent storage — this is exactly the "strip" a rank block
// operates on.
func (m *Matrix) ColumnView(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("la: ColumnView [%d,%d) out of range for %d cols", lo, hi, m.Cols))
	}
	return &Matrix{
		Rows:   m.Rows,
		Cols:   hi - lo,
		Stride: m.Stride,
		Data:   m.Data[lo:],
	}
}

// Equal reports whether m and o have the same shape and all elements
// within tol of each other.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), o.Row(i)
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
// Panics on shape mismatch.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("la: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), o.Row(i)
		for j := range a {
			if v := math.Abs(a[j] - b[j]); v > d {
				d = v
			}
		}
	}
	return d
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float64) {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] *= a
		}
	}
}

// AddScaled computes m += a*o element-wise. Shapes must match.
func (m *Matrix) AddScaled(a float64, o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("la: AddScaled shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst, src := m.Row(i), o.Row(i)
		for j := range dst {
			dst[j] += a * src[j]
		}
	}
}

// FillFunc sets every element (i, j) to f(i, j).
func (m *Matrix) FillFunc(f func(i, j int) float64) {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = f(i, j)
		}
	}
}

// String renders small matrices for debugging; large matrices render a
// shape summary only.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("la.Matrix{%dx%d}", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("la.Matrix{%dx%d:", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf(" %v", m.Row(i))
	}
	return s + "}"
}
