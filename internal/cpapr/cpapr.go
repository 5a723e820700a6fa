// Package cpapr implements a Poisson (KL-divergence) nonnegative CP
// decomposition with multiplicative updates — the model family behind
// the paper's synthetic data: Sec. VI-A2 generates its Poisson tensors
// "using the same method presented in" Chi & Kolda ("On tensors,
// sparsity, and nonnegative factorizations") and Hansen et al., whose
// decompositions minimise the KL divergence rather than the Frobenius
// norm, because count data is Poisson- not Gaussian-distributed.
//
// The multiplicative-update (Lee–Seung style) rule per mode is
//
//	A ← A ∘ ((X ⊘ M)₍₁₎ · Π) ⊘ (1 · Π)
//
// where M is the current model and Π the Khatri-Rao product of the
// other factors. Its sparse form only evaluates the model at the
// nonzeros — per nonzero (i,j,k): m = Σ_r a_ir·b_jr·c_kr, then
// Φ[i,r] += (x/m)·b_jr·c_kr. That numerator IS an MTTKRP over the
// "ratio tensor" whose values are x/m at X's coordinates, so the
// update is executed through the shared engine layer: one COO
// nmode.Engine over a ratio tensor that aliases X's coordinates,
// with the ratio values rewritten in place before each mode's product.
// Everything the paper says about MTTKRP's memory behaviour applies
// here too.
package cpapr

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Options configures the decomposition.
type Options struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the multiplicative-update sweeps. Default 100.
	MaxIters int
	// Tol stops iteration when the KL objective improves by less than
	// this relative amount. Default 1e-6.
	Tol float64
	// MinValue clamps factor entries away from zero so multiplicative
	// updates cannot get permanently stuck. Default 1e-12.
	MinValue float64
	// Workers is the parallelism degree of the Φ numerator products.
	// Values <= 1 (including the default 0) run sequentially, which
	// keeps the update bit-for-bit deterministic; higher values use the
	// engine's privatised parallel COO kernel.
	Workers int
	// Seed drives the random positive initialisation.
	Seed int64
	// Ctx cancels the decomposition between mode updates: a canceled
	// run returns the partial result with ctx's error within one
	// update. nil means never canceled.
	Ctx context.Context
}

// Result holds the fitted nonnegative Kruskal tensor.
type Result struct {
	Factors [3]*la.Matrix
	// KL records the objective Σ m − Σ x·log m (the Poisson negative
	// log-likelihood up to an x-only constant) after each sweep.
	KL        []float64
	Iters     int
	Converged bool
}

// FinalKL returns the last objective value (or +Inf before any sweep).
func (r *Result) FinalKL() float64 {
	if len(r.KL) == 0 {
		return math.Inf(1)
	}
	return r.KL[len(r.KL)-1]
}

// Decompose fits a rank-R nonnegative model to the count tensor t.
// All values must be nonnegative.
func Decompose(t *tensor.COO, opts Options) (*Result, error) {
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("cpapr: rank must be positive, got %d", opts.Rank)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for _, v := range t.Val {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("cpapr: negative or NaN value %v (KL needs counts)", v)
		}
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 100
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.MinValue <= 0 {
		opts.MinValue = 1e-12
	}
	r := opts.Rank

	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	for n := 0; n < 3; n++ {
		m := la.NewMatrix(t.Dims[n], r)
		for i := range m.Data {
			m.Data[i] = rng.Float64() + 0.1
		}
		res.Factors[n] = m
	}

	phi := [3]*la.Matrix{}
	for n := 0; n < 3; n++ {
		phi[n] = la.NewMatrix(t.Dims[n], r)
	}

	// The ratio tensor aliases t's coordinates and owns only a value
	// array; its engine serves all three Φ numerators as mode products.
	// Because every mode's COO executor aliases the ratio tensor's
	// value storage, rewriting rt.Val before a Run feeds that mode's
	// product — one value pass per update, zero coordinate copies.
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	rt := &tensor.COO{Dims: t.Dims, I: t.I, J: t.J, K: t.K, Val: make([]float64, t.NNZ())}
	eng, err := core.NewEngine(rt, core.Plan{Method: core.MethodCOO, Workers: workers})
	if err != nil {
		return nil, err
	}

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	prev := math.Inf(1)
	for iter := 0; iter < opts.MaxIters; iter++ {
		for n := 0; n < 3; n++ {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("cpapr: canceled before mode-%d update: %w", n+1, err)
			}
			if err := updateMode(t, rt, eng, res.Factors[:], phi[n], n, opts.MinValue); err != nil {
				return nil, err
			}
		}
		kl := Objective(t, res.Factors)
		res.KL = append(res.KL, kl)
		res.Iters = iter + 1
		if iter > 0 {
			denom := math.Abs(prev)
			if denom < 1 {
				denom = 1
			}
			if (prev-kl)/denom < opts.Tol {
				res.Converged = true
				break
			}
		}
		prev = kl
	}
	return res, nil
}

// updateMode applies one multiplicative update to factors[mode]: it
// refreshes the ratio tensor's values X ⊘ M at the current model, runs
// the numerator Φ = (X ⊘ M)₍mode₎ · Π as mode `mode`'s MTTKRP through
// the engine, then scales the factor by Φ over the column-sum
// denominator.
func updateMode(t, rt *tensor.COO, eng *nmode.Engine, factors []*la.Matrix, phi *la.Matrix, mode int, minVal float64) error {
	r := phi.Cols
	a, b, c := factors[0], factors[1], factors[2]
	for p := 0; p < t.NNZ(); p++ {
		arow := a.Row(int(t.I[p]))
		brow := b.Row(int(t.J[p]))
		crow := c.Row(int(t.K[p]))
		var m float64
		for q := 0; q < r; q++ {
			m += arow[q] * brow[q] * crow[q]
		}
		if m < minVal {
			m = minVal
		}
		rt.Val[p] = t.Val[p] / m
	}
	// eng.Run zeroes phi before accumulating.
	if err := eng.Run(mode, factors, phi); err != nil {
		return err
	}
	// Denominator: column sums of Π = product of the other factors'
	// column sums.
	denom := make([]float64, r)
	for q := 0; q < r; q++ {
		denom[q] = 1
	}
	for other := 0; other < 3; other++ {
		if other == mode {
			continue
		}
		sums := columnSums(factors[other])
		for q := 0; q < r; q++ {
			denom[q] *= sums[q]
		}
	}
	f := factors[mode]
	for i := 0; i < f.Rows; i++ {
		frow, prow := f.Row(i), phi.Row(i)
		for q := 0; q < r; q++ {
			d := denom[q]
			if d < minVal {
				d = minVal
			}
			frow[q] *= prow[q] / d
			if frow[q] < minVal {
				frow[q] = minVal
			}
		}
	}
	return nil
}

func columnSums(m *la.Matrix) []float64 {
	s := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for q := range row {
			s[q] += row[q]
		}
	}
	return s
}

// Objective evaluates Σ m_full − Σ_nnz x·log m: the Poisson deviance up
// to the x-only constant Σ (x·log x − x). Lower is better. The dense
// Σ m_full term collapses to Σ_r Π_n (column sum of factor n).
func Objective(t *tensor.COO, factors [3]*la.Matrix) float64 {
	r := factors[0].Cols
	var total float64
	sums := [3][]float64{}
	for n := 0; n < 3; n++ {
		sums[n] = columnSums(factors[n])
	}
	for q := 0; q < r; q++ {
		total += sums[0][q] * sums[1][q] * sums[2][q]
	}
	a, b, c := factors[0], factors[1], factors[2]
	for p := 0; p < t.NNZ(); p++ {
		if t.Val[p] == 0 {
			continue
		}
		arow := a.Row(int(t.I[p]))
		brow := b.Row(int(t.J[p]))
		crow := c.Row(int(t.K[p]))
		var m float64
		for q := 0; q < r; q++ {
			m += arow[q] * brow[q] * crow[q]
		}
		if m < 1e-300 {
			m = 1e-300
		}
		total -= t.Val[p] * math.Log(m)
	}
	return total
}

// ModelValue evaluates the fitted model at one coordinate.
func (r *Result) ModelValue(i, j, k int) float64 {
	var m float64
	for q := 0; q < r.Factors[0].Cols; q++ {
		m += r.Factors[0].At(i, q) * r.Factors[1].At(j, q) * r.Factors[2].At(k, q)
	}
	return m
}
