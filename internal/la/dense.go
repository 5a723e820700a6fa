package la

// This file is the dense phase of a CP-ALS sweep: the Gram product, the
// Cholesky factorisation and SPD solve of the normal equations, and the
// column normalisation. Each body applies the paper's Sec. V-B register
// blocking to the dense products: four factor rows share one load and
// store of every output element (Gram, norms) or of every row of the
// Cholesky factor (solve). Every output element is still accumulated
// over the factor rows in row order, so the blocked bodies give the same
// bits as a row-at-a-time loop, and a Dense splits them over its workers
// so that no reduction order depends on the worker count: the solve and
// the normalising scale by row range, the Gram by triangle-weighted
// ranges of its rows, the column norms by column range.

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"spblock/internal/metrics"
	"spblock/internal/sched"
)

// ErrNotSPD is returned by CholeskyDecompose when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("la: matrix is not symmetric positive definite")

// ErrRidgeExhausted is returned by SolveSPD when no ridge term up to its
// last attempt makes the matrix factorisable — a non-finite matrix, for
// one. It satisfies errors.Is(err, ErrNotSPD).
var ErrRidgeExhausted = fmt.Errorf("la: ridge fallback exhausted: %w", ErrNotSPD)

// ridgeAttempts bounds SolveSPD's ridge fallback: the term starts at
// 1e-12 of the diagonal's magnitude and grows tenfold per attempt.
const ridgeAttempts = 40

// parallelMinWork is the multiply-add count below which a Dense runs a
// product inline on the caller's goroutine: launching and joining the
// workers costs more than they would save.
const parallelMinWork = 1 << 20

// denseOp names the product a Dense's workers run.
type denseOp uint8

const (
	opGram denseOp = iota
	opSolve
	opNorms
	opScale
)

// Dense runs the dense CP-ALS products on a worker pool and holds their
// buffers: the Cholesky factor, its transpose and the Gram split. Its
// results are bit-identical at every worker count. The zero Dense runs
// everything inline and sizes its buffers on first use; a Dense from
// NewDense runs products above a fixed work size on its workers. A Dense
// must not be used concurrently with itself.
//
//spblock:workspace
type Dense struct {
	pool sched.Pool
	met  metrics.Collector

	// The product the workers run, published before each pool.Run: x is
	// the tall operand (the Gram or norms input, the solve's right-hand
	// sides, the matrix being scaled), g the Gram output.
	op    denseOp
	x, g  *Matrix
	norms []float64

	// l and lt are the Cholesky factor L and Lᵀ, both row-major.
	l, lt *Matrix
	// minWork is the multiply-add count from which a product runs on
	// the workers (parallelMinWork).
	minWork int
	// gramSplit is the triangle-weighted split of a rank-gramRank
	// Gram's rows over the workers.
	gramSplit [][2]int
	gramRank  int
}

// NewDense returns a Dense whose products run on the given number of
// workers (0 = GOMAXPROCS).
//
//spblock:coldpath
func NewDense(workers int) *Dense {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &Dense{minWork: parallelMinWork}
	if workers > 1 {
		// One work unit per worker: unit u runs part u of the current
		// product's split.
		d.pool.Build(&d.met, workers, sched.SplitOrdered, workers, nil, d.unit)
	}
	return d //spblock:allow constructor hands a fresh workspace to its owning decomposition
}

// parallel reports whether a product of work multiply-adds runs on the
// workers.
//
//spblock:hotpath
func (d *Dense) parallel(work int) bool {
	return d.pool.Workers() > 1 && work >= d.minWork
}

// run hands the published product to the workers and drops the
// operand references once they are done.
//
//spblock:hotpath
func (d *Dense) run(op denseOp, x, g *Matrix, norms []float64) {
	d.op, d.x, d.g, d.norms = op, x, g, norms
	d.pool.Run()
	d.x, d.g, d.norms = nil, nil, nil
}

// unit is the pool body: units [lo, hi) are parts of the current
// product's split.
//
//spblock:hotpath
func (d *Dense) unit(_, lo, hi int) {
	parts := d.pool.Workers()
	for u := lo; u < hi; u++ {
		switch d.op {
		case opGram:
			if u < len(d.gramSplit) {
				gramRows(d.g, d.x, d.gramSplit[u][0], d.gramSplit[u][1])
			}
		case opSolve:
			solveRows(d.l, d.lt, d.x, d.x.Rows*u/parts, d.x.Rows*(u+1)/parts)
		case opNorms:
			sumSquares(d.norms, d.x, d.x.Cols*u/parts, d.x.Cols*(u+1)/parts)
		case opScale:
			scaleRows(d.x, d.norms, d.x.Rows*u/parts, d.x.Rows*(u+1)/parts)
		}
	}
}

// Gram computes g = Aᵀ·A, the R x R symmetric matrix (R = a.Cols) the
// CP-ALS normal equations are built from. g must be R x R; its previous
// contents are overwritten.
//
//spblock:hotpath
func (d *Dense) Gram(g, a *Matrix) {
	r := a.Cols
	if g.Rows != r || g.Cols != r {
		panic("la: Gram output shape mismatch")
	}
	g.Zero()
	if d.parallel(a.Rows * r * (r + 1) / 2) {
		if d.gramRank != r {
			d.splitGram(r)
		}
		d.run(opGram, a, g, nil)
	} else {
		gramRows(g, a, 0, r)
	}
	// Mirror the upper triangle.
	for p := 0; p < r; p++ {
		for q := p + 1; q < r; q++ {
			g.Data[q*g.Stride+p] = g.Data[p*g.Stride+q]
		}
	}
}

// splitGram splits the rows of a rank-r Gram's upper triangle over the
// workers by their length: row p holds r-p entries.
//
//spblock:coldpath
func (d *Dense) splitGram(r int) {
	d.gramSplit = sched.Shares(r, d.pool.Workers(), func(p int) int64 {
		return int64((p+1)*r - p*(p+1)/2)
	})
	d.gramRank = r
}

// gramRows accumulates rows [plo, phi) of the upper triangle of
// g += Aᵀ·A. Every g[p][q] is summed over A's rows in order, skipping a
// row whose A[i][p] is zero, so the result does not depend on the p
// range. Four rows of A share one load and store of each g[p][q].
//
//spblock:hotpath
func gramRows(g, a *Matrix, plo, phi int) {
	r := a.Cols
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		for p := plo; p < phi; p++ {
			gp := g.Row(p)[p:r]
			v0, v1, v2, v3 := r0[p], r1[p], r2[p], r3[p]
			if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
				gramAdd(gp, v0, r0[p:r])
				gramAdd(gp, v1, r1[p:r])
				gramAdd(gp, v2, r2[p:r])
				gramAdd(gp, v3, r3[p:r])
				continue
			}
			q0, q1, q2, q3 := r0[p:r], r1[p:r], r2[p:r], r3[p:r]
			q0, q1, q2, q3 = q0[:len(gp)], q1[:len(gp)], q2[:len(gp)], q3[:len(gp)]
			for q, s := range gp {
				s += v0 * q0[q]
				s += v1 * q1[q]
				s += v2 * q2[q]
				s += v3 * q3[q]
				gp[q] = s
			}
		}
	}
	for ; i < a.Rows; i++ {
		row := a.Row(i)
		for p := plo; p < phi; p++ {
			gramAdd(g.Row(p)[p:r], row[p], row[p:r])
		}
	}
}

// gramAdd adds one row's contribution v·row to the Gram row segment gp,
// or nothing when v is zero.
//
//spblock:hotpath
func gramAdd(gp []float64, v float64, row []float64) {
	if v == 0 {
		return
	}
	row = row[:len(gp)]
	for q := range gp {
		gp[q] += v * row[q]
	}
}

// CholeskyInto factors the SPD matrix a = L·Lᵀ into l, which must be
// a's shape and not alias it; the strictly-upper triangle of l is
// zeroed. Returns ErrNotSPD when a pivot is not strictly positive, with
// l holding a partial factorisation.
func CholeskyInto(l, a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if l.Rows != a.Rows || l.Cols != a.Cols {
		return fmt.Errorf("la: Cholesky output is %dx%d, want %dx%d", l.Rows, l.Cols, a.Rows, a.Cols)
	}
	l.CopyFrom(a)
	return cholesky(l)
}

// CholeskyDecompose factors the SPD matrix a = L·Lᵀ and returns the
// lower-triangular factor L in fresh storage (entries above the
// diagonal are zero). Returns ErrNotSPD when a pivot is not strictly
// positive.
func CholeskyDecompose(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Cols)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// cholesky factors the square matrix l = L·Lᵀ in place.
//
//spblock:hotpath
func cholesky(l *Matrix) error {
	n := l.Rows
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		d := lj[j]
		for _, v := range lj[:j] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		lj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			s := li[j]
			for k, v := range lj[:j] {
				s -= li[k] * v
			}
			li[j] = s * inv
		}
	}
	// Zero the strictly-upper triangle so L is a clean factor.
	for i := 0; i < n; i++ {
		clear(l.Row(i)[i+1:])
	}
	return nil
}

// SolveSPD solves X·A = B for X, where A is R x R symmetric positive
// definite and B is M x R; the solution overwrites B. This is the
// factor-matrix update of CP-ALS: Anew = MTTKRP · (V)⁻¹ with V the
// Hadamard product of Gram matrices. A ridge term eps*I is added when
// the plain factorisation fails, which keeps ALS running on rank
// deficient iterates; ErrRidgeExhausted reports that no ridge term
// helped.
//
//spblock:hotpath
func (d *Dense) SolveSPD(a, b *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: SolveSPD needs square A, got %dx%d", a.Rows, a.Cols) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	if b.Cols != a.Rows {
		return fmt.Errorf("la: SolveSPD dim mismatch: B is %dx%d, A is %dx%d", b.Rows, b.Cols, a.Rows, a.Cols) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	n := a.Rows
	if d.l == nil || d.l.Rows != n {
		d.sizeFactor(n)
	}
	if err := d.factor(a); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for j, v := range d.l.Row(i) {
			d.lt.Data[j*d.lt.Stride+i] = v
		}
	}
	if d.parallel(b.Rows * n * n) {
		d.run(opSolve, b, nil, nil)
	} else {
		solveRows(d.l, d.lt, b, 0, b.Rows)
	}
	return nil
}

// sizeFactor allocates the rank-n Cholesky factor and its transpose.
//
//spblock:coldpath
func (d *Dense) sizeFactor(n int) {
	d.l, d.lt = NewMatrix(n, n), NewMatrix(n, n)
}

// factor writes the Cholesky factor of a, or of a plus the smallest
// ridge term that makes it factorisable, into d.l.
//
//spblock:hotpath
func (d *Dense) factor(a *Matrix) error {
	d.l.CopyFrom(a)
	if cholesky(d.l) == nil {
		return nil
	}
	// Ridge fallback: scale with the diagonal magnitude.
	n := a.Rows
	var trace float64
	for i := 0; i < n; i++ {
		trace += math.Abs(a.Data[i*a.Stride+i])
	}
	eps := 1e-12*trace + 1e-300
	for attempt := 0; attempt < ridgeAttempts; attempt++ {
		d.l.CopyFrom(a)
		for i := 0; i < n; i++ {
			d.l.Data[i*d.l.Stride+i] += eps
		}
		if cholesky(d.l) == nil {
			return nil
		}
		eps *= 10
	}
	return ErrRidgeExhausted
}

// solveRows solves x·L·Lᵀ = b in place for the rows [lo, hi) of b:
// first y·Lᵀ = b by forward substitution, then x·L = y by back
// substitution, which reads column j of L as row j of lt. Four rows
// share each load of L; each row keeps one accumulator and the
// operation order of a single-row substitution.
//
//spblock:hotpath
func solveRows(l, lt, b *Matrix, lo, hi int) {
	n := l.Rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		x0, x1, x2, x3 := b.Row(i), b.Row(i+1), b.Row(i+2), b.Row(i+3)
		// y[j] = (b[j] - Σ_{k<j} y[k]·L[j][k]) / L[j][j]
		for j := 0; j < n; j++ {
			lj := l.Row(j)
			lk := lj[:j]
			y0, y1, y2, y3 := x0[:len(lk)], x1[:len(lk)], x2[:len(lk)], x3[:len(lk)]
			s0, s1, s2, s3 := x0[j], x1[j], x2[j], x3[j]
			for k, v := range lk {
				s0 -= y0[k] * v
				s1 -= y1[k] * v
				s2 -= y2[k] * v
				s3 -= y3[k] * v
			}
			dj := lj[j]
			x0[j], x1[j], x2[j], x3[j] = s0/dj, s1/dj, s2/dj, s3/dj
		}
		// x[j] = (y[j] - Σ_{k>j} x[k]·L[k][j]) / L[j][j]
		for j := n - 1; j >= 0; j-- {
			tj := lt.Row(j)
			tk := tj[j+1 : n]
			y0, y1, y2, y3 := x0[j+1:n], x1[j+1:n], x2[j+1:n], x3[j+1:n]
			y0, y1, y2, y3 = y0[:len(tk)], y1[:len(tk)], y2[:len(tk)], y3[:len(tk)]
			s0, s1, s2, s3 := x0[j], x1[j], x2[j], x3[j]
			for k, v := range tk {
				s0 -= y0[k] * v
				s1 -= y1[k] * v
				s2 -= y2[k] * v
				s3 -= y3[k] * v
			}
			dj := tj[j]
			x0[j], x1[j], x2[j], x3[j] = s0/dj, s1/dj, s2/dj, s3/dj
		}
	}
	for ; i < hi; i++ {
		x := b.Row(i)
		for j := 0; j < n; j++ {
			lj := l.Row(j)
			s := x[j]
			for k, v := range lj[:j] {
				s -= x[k] * v
			}
			x[j] = s / lj[j]
		}
		for j := n - 1; j >= 0; j-- {
			tj := lt.Row(j)
			s := x[j]
			for k := j + 1; k < n; k++ {
				s -= x[k] * tj[k]
			}
			x[j] = s / tj[j]
		}
	}
}

// ColumnNorms writes the Euclidean norm of each column of a into
// norms[:a.Cols].
//
//spblock:hotpath
func (d *Dense) ColumnNorms(norms []float64, a *Matrix) {
	norms = norms[:a.Cols]
	clear(norms)
	if d.parallel(a.Rows * a.Cols) {
		d.run(opNorms, a, nil, norms)
	} else {
		sumSquares(norms, a, 0, a.Cols)
	}
	for j, s := range norms {
		norms[j] = math.Sqrt(s)
	}
}

// NormalizeColumns scales each column of a to unit norm and writes the
// original norms into norms[:a.Cols] (zero-norm columns are left
// untouched and report 0).
//
//spblock:hotpath
func (d *Dense) NormalizeColumns(norms []float64, a *Matrix) {
	d.ColumnNorms(norms, a)
	if d.parallel(a.Rows * a.Cols) {
		d.run(opScale, a, nil, norms)
	} else {
		scaleRows(a, norms, 0, a.Rows)
	}
}

// sumSquares adds the squares of a's columns [lo, hi) into norms[lo:hi],
// row by row; four rows share one load and store of each accumulator.
//
//spblock:hotpath
func sumSquares(norms []float64, a *Matrix, lo, hi int) {
	acc := norms[lo:hi]
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0, r1, r2, r3 := a.Row(i)[lo:hi], a.Row(i + 1)[lo:hi], a.Row(i + 2)[lo:hi], a.Row(i + 3)[lo:hi]
		r0, r1, r2, r3 = r0[:len(acc)], r1[:len(acc)], r2[:len(acc)], r3[:len(acc)]
		for j, s := range acc {
			s += r0[j] * r0[j]
			s += r1[j] * r1[j]
			s += r2[j] * r2[j]
			s += r3[j] * r3[j]
			acc[j] = s
		}
	}
	for ; i < a.Rows; i++ {
		r := a.Row(i)[lo:hi]
		r = r[:len(acc)]
		for j, v := range r {
			acc[j] += v * v
		}
	}
}

// scaleRows divides the rows [lo, hi) of a column-wise by the positive
// norms.
//
//spblock:hotpath
func scaleRows(a *Matrix, norms []float64, lo, hi int) {
	norms = norms[:a.Cols]
	for i := lo; i < hi; i++ {
		r := a.Row(i)
		for j, nj := range norms {
			if nj > 0 {
				r[j] /= nj
			}
		}
	}
}

// Gram computes G = Aᵀ·A into a new R x R matrix, R = A.Cols.
func Gram(a *Matrix) *Matrix {
	g := NewMatrix(a.Cols, a.Cols)
	new(Dense).Gram(g, a)
	return g
}

// SolveSPD solves X·A = B in place of B on the caller's goroutine; see
// Dense.SolveSPD.
func SolveSPD(a, b *Matrix) error { return new(Dense).SolveSPD(a, b) }

// ColumnNorms returns the Euclidean norm of each column of a.
func ColumnNorms(a *Matrix) []float64 {
	norms := make([]float64, a.Cols)
	new(Dense).ColumnNorms(norms, a)
	return norms
}

// NormalizeColumns scales each column of a to unit norm and returns the
// original norms (zero-norm columns are left untouched and report 0).
func NormalizeColumns(a *Matrix) []float64 {
	norms := make([]float64, a.Cols)
	new(Dense).NormalizeColumns(norms, a)
	return norms
}
