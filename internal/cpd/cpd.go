// Package cpd implements the canonical polyadic decomposition via
// alternating least squares (CP-ALS), the algorithm whose inner loop is
// the MTTKRP kernel this library optimises (Sec. I: MTTKRP is "the most
// expensive part of tensor decompositions" and runs 10–1000s of times
// per decomposition).
//
// Every entry point — CPALS, CPALSEngine, CPALSN and CPALSOOC — checks
// its input, picks an als.Kernel (order-3 engine, memoized, order-N
// engine or out-of-core stream) and hands it to one driver around the
// shared sweep loop in internal/als, so all four return the same Result.
package cpd

import (
	"context"
	"fmt"
	"math"

	"spblock/internal/als"
	"spblock/internal/core"
	"spblock/internal/engine"
	"spblock/internal/la"
	"spblock/internal/memo"
	"spblock/internal/metrics"
	"spblock/internal/tensor"
)

// Options configures an order-3 decomposition.
type Options struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 50.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Plan selects the MTTKRP kernel (its Grid is indexed by mode).
	// Default: SPLATT.
	Plan core.Plan
	// Memoize shares the mode-3 contraction between the mode-1 and
	// mode-2 products via internal/memo (the dimension-tree trade of
	// the paper's related work): ~1/3 fewer flops per sweep at the cost
	// of a P×R buffer (P = distinct (i,j) pairs). Mode 3 still uses the
	// configured Plan.
	Memoize bool
	// Seed drives the random factor initialisation.
	Seed int64
	// Ctx cancels the decomposition between mode products (see
	// als.Config.Ctx): a canceled run returns the partial result with
	// ctx's error within one mode product. nil means never canceled.
	Ctx context.Context
}

// sweeps returns the sweep parameters of a decomposition of t.
func (o Options) sweeps(t *tensor.COO) als.Config {
	return als.Config{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Seed: o.Seed,
		NormX: math.Sqrt(t.NormSquared()), Ctx: o.Ctx}
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
	// Plan is the order-3 plan the sweeps ran on: Options.Plan with
	// defaults applied for CPALS, the engine's plan for CPALSEngine. It
	// is the zero Plan for CPALSN and CPALSOOC.
	Plan core.Plan
}

// Fit returns the final fit, or 0 before any sweep ran.
func (r *Result) Fit() float64 {
	if len(r.Fits) == 0 {
		return 0
	}
	return r.Fits[len(r.Fits)-1]
}

// decompose is the one CP-ALS driver behind every entry point: it runs
// the shared sweep loop over k with cfg's sweep parameters and ‖X‖,
// and reports plan on the Result. als.Run owns the rank, MaxIters and
// Tol checks and defaults. On a mid-sweep error the partial result is
// returned alongside the error.
func decompose(k als.Kernel, cfg als.Config, plan core.Plan) (*Result, error) {
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
		Plan:      plan,
	}, err
}

// memoKernel folds modes 1-2 from the shared mode-3 contraction
// (refreshed once per sweep via StartSweep); mode 3 still runs through
// the configured engine plan.
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
// builds for Options.Plan (the builders validate t).
func CPALS(t *tensor.COO, opts Options) (*Result, error) {
	if opts.Plan.Grid == ([3]int{}) {
		opts.Plan.Grid = [3]int{1, 1, 1}
	}
	k, err := newKernel(t, opts)
	if err != nil {
		return nil, err
	}
	return decompose(k, opts.sweeps(t), opts.Plan)
}

// newKernel builds the order-3 kernel CPALS runs: the multi-mode engine
// for opts.Plan, built once per decomposition so each mode's executor
// and pooled workspace serve every sweep, plus the memo engine
// when opts.Memoize is set. The memoized path folds modes 1-2 from the
// memo buffer, so it only needs the mode-3 executor.
func newKernel(t *tensor.COO, opts Options) (als.Kernel, error) {
	modes := []int{0, 1, 2}
	if opts.Memoize {
		modes = []int{2}
	}
	eng, err := engine.NewMultiModeExecutor(t, opts.Plan, modes...)
	if err != nil {
		return nil, err
	}
	nk := nKernel{dims: t.Dims[:], eng: &eng.NEngine}
	if !opts.Memoize {
		return &nk, nil
	}
	m, err := memo.NewEngine(t)
	if err != nil {
		return nil, err
	}
	return &memoKernel{nKernel: nk, memo: m}, nil
}

// CPALSEngine decomposes t through a caller-supplied multi-mode engine
// built over the same tensor — the path a serving cache uses to reuse
// one preprocessed executor stack across many decompositions instead of
// paying the per-mode CSF/block builds on every job. The engine must
// have all three mode executors built; its plan (not Options.Plan)
// selects the kernels, and the returned Result.Plan reports it.
//
// Memoize is rejected: the memoized kernel folds two modes outside the
// engine, bypassing the cached stack the caller is leasing. The caller
// owns the engine's single-Run-per-mode exclusivity for the whole call.
func CPALSEngine(t *tensor.COO, eng *engine.MultiModeExecutor, opts Options) (*Result, error) {
	if opts.Memoize {
		return nil, fmt.Errorf("cpd: CPALSEngine does not support Memoize")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("cpd: CPALSEngine needs a non-nil engine")
	}
	if eng.Dims() != t.Dims {
		return nil, fmt.Errorf("cpd: engine dims %v do not match tensor dims %v", eng.Dims(), t.Dims)
	}
	for mode := 0; mode < 3; mode++ {
		if _, err := eng.Metrics(mode); err != nil {
			return nil, fmt.Errorf("cpd: %w", err)
		}
	}
	return decompose(&nKernel{dims: t.Dims[:], eng: &eng.NEngine}, opts.sweeps(t), eng.Plan())
}

// ReconstructDense materialises the fitted model as a dense tensor in a
// flat I*J*K slice (row-major i, j, k) — a test and example helper for
// small shapes only.
func ReconstructDense(res *Result, dims tensor.Dims) ([]float64, error) {
	if dims.Volume() > 16e6 {
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
