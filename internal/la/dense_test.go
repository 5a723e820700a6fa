package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spblock/internal/testutil/raceflag"
)

// The scalar loops below are the dense phase one row at a time, the
// oracles the register-blocked, parallel bodies must match bit for bit.

func scalarGram(a *Matrix) *Matrix {
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
	for p := 0; p < r; p++ {
		for q := p + 1; q < r; q++ {
			g.Set(q, p, g.At(p, q))
		}
	}
	return g
}

func scalarCholesky(a *Matrix) (*Matrix, error) {
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
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	return l, nil
}

func scalarSolveSPD(a, b *Matrix) error {
	l, err := scalarCholesky(a)
	if err != nil {
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
			l, err = scalarCholesky(reg)
			eps *= 10
		}
		if err != nil {
			return err
		}
	}
	n := a.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Row(i)
		for j := 0; j < n; j++ {
			s := row[j]
			lj := l.Row(j)
			for k := 0; k < j; k++ {
				s -= row[k] * lj[k]
			}
			row[j] = s / lj[j]
		}
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

func scalarColumnNorms(a *Matrix) []float64 {
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

func scalarNormalizeColumns(a *Matrix) []float64 {
	norms := scalarColumnNorms(a)
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

// parallelDense is a Dense on the given workers that runs every
// product, however small, on them.
func parallelDense(workers int) *Dense {
	d := NewDense(workers)
	d.minWork = 0
	return d
}

// denseOperand is a rows x r matrix of normal deviates with about a
// fifth of its entries zero and its column 1 (when r > 2) all zero. A
// strided operand is a column view of a wider matrix.
func denseOperand(rng *rand.Rand, rows, r int, strided bool) *Matrix {
	pad := 0
	if strided {
		pad = 3
	}
	m := randMatrix(rng, rows, r+2*pad).ColumnView(pad, pad+r)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			if rng.Intn(5) == 0 || (r > 2 && j == 1) {
				row[j] = 0
			}
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// rowsOf flattens a (possibly strided) matrix row by row.
func rowsOf(m *Matrix) []float64 {
	out := make([]float64, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// TestDenseMatchesScalarOracles: the blocked Gram, SPD solve and
// normalise give the scalar loops' bits at 1-4 workers, over row counts
// on both sides of the four-row block, ranks from 1 to 128, zero
// entries and strided views.
func TestDenseMatchesScalarOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, r := range []int{1, 3, 16, 17, 128} {
		for _, rows := range []int{1, 3, 4, 7, 61, 130} {
			for _, strided := range []bool{false, true} {
				a := denseOperand(rng, rows, r, strided)
				wantG := scalarGram(a)
				spd := spdMatrix(rng, r)
				wantX := denseOperand(rng, rows, r, strided)
				b := wantX.Clone()
				if err := scalarSolveSPD(spd, wantX); err != nil {
					t.Fatal(err)
				}
				wantN := a.Clone()
				wantNorms := scalarNormalizeColumns(wantN)

				for workers := 1; workers <= 4; workers++ {
					name := fmt.Sprintf("R=%d rows=%d strided=%v workers=%d", r, rows, strided, workers)
					d := parallelDense(workers)
					g := NewMatrix(r, r)
					g.Data[0] = math.NaN() // the previous contents must not leak
					d.Gram(g, a)
					sameBits(t, name+": Gram", g.Data, wantG.Data)

					x := denseOperand(rng, rows, r, strided)
					x.CopyFrom(b)
					if err := d.SolveSPD(spd, x); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameBits(t, name+": SolveSPD", rowsOf(x), rowsOf(wantX))

					n := a.Clone()
					norms := make([]float64, r)
					d.NormalizeColumns(norms, n)
					sameBits(t, name+": norms", norms, wantNorms)
					sameBits(t, name+": NormalizeColumns", n.Data, wantN.Data)
				}
			}
		}
	}
}

// TestDenseDefaultThreshold runs products on both sides of the inline
// threshold through a plain NewDense and the package-level functions.
func TestDenseDefaultThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, rows := range []int{9, 257} {
		a := denseOperand(rng, rows, 128, false)
		want := scalarGram(a)
		sameBits(t, "Gram", Gram(a).Data, want.Data)
		g := NewMatrix(128, 128)
		NewDense(2).Gram(g, a)
		sameBits(t, "Dense.Gram", g.Data, want.Data)

		spd := spdMatrix(rng, 128)
		wantX := a.Clone()
		if err := scalarSolveSPD(spd, wantX); err != nil {
			t.Fatal(err)
		}
		x, y := a.Clone(), a.Clone()
		if err := SolveSPD(spd, x); err != nil {
			t.Fatal(err)
		}
		if err := NewDense(2).SolveSPD(spd, y); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "SolveSPD", x.Data, wantX.Data)
		sameBits(t, "Dense.SolveSPD", y.Data, wantX.Data)
	}
}

// TestGramInfBesideZero: a zero entry times an infinite one contributes
// nothing, as in the scalar loop, instead of a NaN.
func TestGramInfBesideZero(t *testing.T) {
	a := NewMatrix(6, 3)
	a.FillFunc(func(i, j int) float64 { return float64(i + j + 1) })
	a.Set(2, 0, 0)
	a.Set(2, 2, math.Inf(1))
	want := scalarGram(a)
	for workers := 1; workers <= 3; workers++ {
		g := NewMatrix(3, 3)
		parallelDense(workers).Gram(g, a)
		sameBits(t, fmt.Sprintf("workers=%d", workers), g.Data, want.Data)
	}
	if math.IsNaN(want.At(0, 2)) {
		t.Fatal("oracle produced NaN: the zero was not skipped")
	}
}

func TestSolveSPDRidge(t *testing.T) {
	// A rank-deficient Gram (two equal columns) still solves through the
	// ridge term, with the scalar loop's bits.
	rng := rand.New(rand.NewSource(23))
	f := randMatrix(rng, 10, 5)
	for i := 0; i < f.Rows; i++ {
		f.Set(i, 4, f.At(i, 3))
	}
	deficient := Gram(f)
	if _, err := CholeskyDecompose(deficient); err == nil {
		t.Skip("rounding made the deficient Gram factorisable")
	}
	want := randMatrix(rng, 9, 5)
	b := want.Clone()
	if err := scalarSolveSPD(deficient, want); err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 3; workers++ {
		x := b.Clone()
		if err := parallelDense(workers).SolveSPD(deficient, x); err != nil {
			t.Fatalf("workers=%d: rank-deficient Gram did not solve: %v", workers, err)
		}
		sameBits(t, fmt.Sprintf("workers=%d", workers), x.Data, want.Data)
	}

	// A NaN Gram defeats every ridge term.
	poisoned := Gram(f)
	poisoned.Set(2, 2, math.NaN())
	err := SolveSPD(poisoned, b.Clone())
	if !errors.Is(err, ErrRidgeExhausted) || !errors.Is(err, ErrNotSPD) {
		t.Fatalf("NaN Gram: err = %v, want ErrRidgeExhausted wrapping ErrNotSPD", err)
	}
}

func TestCholeskyIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := spdMatrix(rng, 7)
	want, err := scalarCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := NewMatrix(7, 7)
	l.FillFunc(func(i, j int) float64 { return math.NaN() })
	if err := CholeskyInto(l, a); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "CholeskyInto", l.Data, want.Data)
	if err := CholeskyInto(NewMatrix(6, 6), a); err == nil {
		t.Fatal("mis-shaped output accepted")
	}
}

func TestDenseSteadyStateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(25))
	a := randMatrix(rng, 64, 16)
	spd := spdMatrix(rng, 16)
	g, norms := NewMatrix(16, 16), make([]float64, 16)
	for _, d := range []*Dense{NewDense(1), parallelDense(2)} {
		step := func() {
			d.Gram(g, a)
			if err := d.SolveSPD(spd, a); err != nil {
				t.Fatal(err)
			}
			d.NormalizeColumns(norms, a)
		}
		step()
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Fatalf("%d workers: %v allocs per dense phase, want 0", d.pool.Workers(), n)
		}
	}
}
