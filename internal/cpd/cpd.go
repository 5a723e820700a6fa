// Package cpd implements the canonical polyadic decomposition via
// alternating least squares (CP-ALS), the algorithm whose inner loop is
// the MTTKRP kernel this library optimises (Sec. I: MTTKRP is "the most
// expensive part of tensor decompositions" and runs 10–1000s of times
// per decomposition).
//
// Every entry point — CPALS, CPALSEngine and CPALSOOC — takes the same
// Options at any order, checks its input, picks an als.Kernel (an
// nmode.Engine, the memoized order-3 kernel or the out-of-core stream)
// and hands it to one driver around the shared sweep loop in
// internal/als, so all three return the same Result.
package cpd

import (
	"context"
	"fmt"
	"math"
	"slices"

	"spblock/internal/als"
	"spblock/internal/la"
	"spblock/internal/memo"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Options configures a decomposition at any order.
type Options struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 50.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Kernel configures the MTTKRP executors CPALS builds (algorithm,
	// rank strips, workers, MB grid indexed by mode, scheduler); a
	// caller holding a core.Plan passes plan.Options(). CPALSEngine
	// and CPALSOOC run their own kernels and ignore it.
	Kernel nmode.Options
	// Memoize shares the mode-3 contraction between the mode-1 and
	// mode-2 products via internal/memo (the dimension-tree trade of
	// the paper's related work): ~1/3 fewer flops per sweep at the cost
	// of a P×R buffer (P = distinct (i,j) pairs). Mode 3 still runs the
	// configured Kernel. Only CPALS on a third-order tensor supports it.
	Memoize bool
	// Seed drives the random factor initialisation. With the same
	// seed, rank and iteration budget, every entry point computes the
	// same trajectory over numerically identical kernels.
	Seed int64
	// Ctx cancels the decomposition between mode products (see
	// als.Config.Ctx): a canceled run returns the partial result with
	// ctx's error within one mode product. nil means never canceled.
	Ctx context.Context
}

// sweeps returns the sweep parameters of a decomposition of a tensor
// whose values' squares sum to normSq.
func (o Options) sweeps(normSq float64) als.Config {
	return als.Config{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Seed: o.Seed,
		NormX: math.Sqrt(normSq), Ctx: o.Ctx}
}

// Result holds a fitted Kruskal tensor with one factor per mode:
// X ≈ Σ_r λ_r · Factors[0][:,r] ∘ Factors[1][:,r] ∘ … ∘ Factors[N-1][:,r].
type Result struct {
	Lambda  []float64
	Factors []*la.Matrix
	// Fits records the model fit 1 − ‖X − M‖/‖X‖ after each sweep.
	Fits      []float64
	Iters     int
	Converged bool
	// Phases buckets the decomposition's wall time by phase (MTTKRP vs
	// solve vs fit) — see metrics.PhaseTimes.
	Phases metrics.PhaseTimes
}

// Fit returns the final fit, or 0 before any sweep ran.
func (r *Result) Fit() float64 {
	if len(r.Fits) == 0 {
		return 0
	}
	return r.Fits[len(r.Fits)-1]
}

// decompose is the one CP-ALS driver behind every entry point: it runs
// the shared sweep loop over k with cfg's sweep parameters and ‖X‖.
// als.Run owns the rank, MaxIters and Tol checks and defaults. On a
// mid-sweep error the partial result is returned alongside the error.
func decompose(k als.Kernel, cfg als.Config) (*Result, error) {
	cfg.ErrPrefix = "cpd"
	ares, err := als.Run(k, cfg)
	if ares == nil {
		return nil, err
	}
	return &Result{
		Lambda:    ares.Lambda,
		Factors:   ares.Factors,
		Fits:      ares.Fits,
		Iters:     ares.Iters,
		Converged: ares.Converged,
		Phases:    ares.Phases,
	}, err
}

// nKernel adapts an nmode.Engine to the shared ALS core. The engine
// supplies Dims, and Workers gives the dense ALS phase its current
// parallelism (als.WorkerCounter).
type nKernel struct {
	*nmode.Engine
}

func (k *nKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	return k.Run(mode, factors, out)
}

// memoKernel folds modes 1-2 from the shared mode-3 contraction
// (refreshed once per sweep via StartSweep); mode 3 still runs through
// the configured engine.
type memoKernel struct {
	nKernel
	memo *memo.Engine
}

func (k *memoKernel) StartSweep(factors []*la.Matrix) error {
	return k.memo.ComputeS(factors[2])
}

func (k *memoKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	switch mode {
	case 0:
		return k.memo.FoldMode1(factors[1], out)
	case 1:
		return k.memo.FoldMode2(factors[0], out)
	}
	return k.nKernel.MTTKRP(mode, factors, out)
}

// CPALS decomposes t with alternating least squares over an engine it
// builds for Options.Kernel (the engine build validates t).
func CPALS(t *nmode.Tensor, opts Options) (*Result, error) {
	k, err := newKernel(t, opts)
	if err != nil {
		return nil, err
	}
	return decompose(k, opts.sweeps(t.NormSquared()))
}

// newKernel builds the kernel CPALS runs: the engine for opts.Kernel,
// built once per decomposition so each mode's executor and pooled
// workspace serve every sweep, plus the memo engine when opts.Memoize
// is set. The memoized path folds modes 1-2 from the memo buffer, so
// it only needs the mode-3 executor.
func newKernel(t *nmode.Tensor, opts Options) (als.Kernel, error) {
	if !opts.Memoize {
		eng, err := nmode.NewEngine(t, opts.Kernel)
		if err != nil {
			return nil, err
		}
		return &nKernel{eng}, nil
	}
	if err := tensor.CheckOrder3(t); err != nil {
		return nil, fmt.Errorf("cpd: Memoize: %w", err)
	}
	eng, err := nmode.NewEngine(t, opts.Kernel, 2)
	if err != nil {
		return nil, err
	}
	m, err := memo.NewEngine(t)
	if err != nil {
		return nil, err
	}
	return &memoKernel{nKernel: nKernel{eng}, memo: m}, nil
}

// CPALSEngine decomposes t through a caller-supplied engine built over
// the same tensor — the path a serving cache uses to reuse one
// preprocessed executor stack across many decompositions instead of
// paying the per-mode CSF/block builds on every job. The engine must
// have every mode's executor built; the options it was built with (not
// Options.Kernel) select the kernels.
//
// Memoize is rejected: the memoized kernel folds two modes outside the
// engine, bypassing the cached stack the caller is leasing. The caller
// owns the engine's single-Run-per-mode exclusivity for the whole call.
func CPALSEngine(t *nmode.Tensor, eng *nmode.Engine, opts Options) (*Result, error) {
	if opts.Memoize {
		return nil, fmt.Errorf("cpd: CPALSEngine does not support Memoize")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("cpd: CPALSEngine needs a non-nil engine")
	}
	if !slices.Equal(eng.Dims(), t.Dims) {
		return nil, fmt.Errorf("cpd: engine dims %v do not match tensor dims %v", eng.Dims(), t.Dims)
	}
	for mode := range t.Dims {
		if _, err := eng.Metrics(mode); err != nil {
			return nil, fmt.Errorf("cpd: %w", err)
		}
	}
	return decompose(&nKernel{eng}, opts.sweeps(t.NormSquared()))
}

// ReconstructDense materialises the fitted model as a dense tensor in a
// flat I*J*K slice (row-major i, j, k) — a test and example helper for
// small shapes only.
func ReconstructDense(res *Result, dims []int) ([]float64, error) {
	if len(dims) != 3 {
		return nil, fmt.Errorf("cpd: ReconstructDense needs 3 dims, got %v", dims)
	}
	if float64(dims[0])*float64(dims[1])*float64(dims[2]) > 16e6 {
		return nil, fmt.Errorf("cpd: ReconstructDense refuses %v (too large)", dims)
	}
	if len(res.Factors) != 3 {
		return nil, fmt.Errorf("cpd: ReconstructDense needs 3 factors, got %d", len(res.Factors))
	}
	a, b, c := res.Factors[0], res.Factors[1], res.Factors[2]
	if a.Rows != dims[0] || b.Rows != dims[1] || c.Rows != dims[2] {
		return nil, fmt.Errorf("cpd: factors do not match dims %v", dims)
	}
	out := make([]float64, dims[0]*dims[1]*dims[2])
	r := len(res.Lambda)
	for i := 0; i < dims[0]; i++ {
		arow := a.Row(i)
		for j := 0; j < dims[1]; j++ {
			brow := b.Row(j)
			base := (i*dims[1] + j) * dims[2]
			for k := 0; k < dims[2]; k++ {
				crow := c.Row(k)
				var s float64
				for q := 0; q < r; q++ {
					s += res.Lambda[q] * arow[q] * brow[q] * crow[q]
				}
				out[base+k] = s
			}
		}
	}
	return out, nil
}
