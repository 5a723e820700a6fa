// Package als holds the single CP-ALS sweep loop shared by every
// decomposition driver in the repo (cpd's entry points at every order,
// dist.CPALS). The loop — random factor init, per-mode MTTKRP dispatch,
// Gram / Hadamard normal-equation solve, lambda normalisation, fit and
// convergence — is identical across the shared-memory, out-of-core and
// distributed paths; only the MTTKRP kernel differs, so the kernel
// is the interface and everything else lives here exactly once.
//
// The random number stream is part of the contract: factors are
// initialised mode by mode from one rand source, and dead-column
// reseeds draw from the same source, so two drivers with numerically
// identical kernels produce identical trajectories (the property the
// dist-vs-cpd and memoized-vs-plain equivalence tests pin down).
package als

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"spblock/internal/la"
	"spblock/internal/metrics"
)

// Kernel supplies the mode products for one decomposition. MTTKRP
// receives the full factor set indexed by mode (the output mode's entry
// may be ignored) and must leave out = the mode-`mode` matricised
// tensor times Khatri-Rao product.
type Kernel interface {
	Dims() []int
	MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error
}

// SweepStarter is an optional Kernel extension invoked once at the top
// of every sweep with the current factors — the hook the memoized
// order-3 path uses to compute its shared mode-3 contraction.
type SweepStarter interface {
	StartSweep(factors []*la.Matrix) error
}

// WorkerCounter is an optional Kernel extension reporting how many
// workers the kernel's products run on. Run gives the dense phase of a
// sweep — the Gram products, the normal-equation solves and the column
// normalisation — the same count, read once per Run; a kernel without
// the extension gets GOMAXPROCS. The dense phase's results do not depend
// on the count.
type WorkerCounter interface {
	Workers() int
}

// SweepRecoverer is an optional Kernel extension for fault-tolerant
// kernels: when an MTTKRP dispatch (or StartSweep) fails mid-sweep, the
// loop asks the kernel whether it has recovered — e.g. the distributed
// runtime re-partitioning around a crashed rank — and, if so, restarts
// the sweep with the current factors. attempt counts restarts of this
// sweep (0 on the first failure); returning false aborts with err as a
// plain kernel failure would. Solve and normalisation errors are never
// retried — they indicate numerical trouble, not a lost rank.
type SweepRecoverer interface {
	RecoverSweep(sweep, mode, attempt int, err error) bool
}

// Config parameterises Run. Callers own their public-facing defaults;
// Run only backstops MaxIters (50) and Tol (1e-5).
type Config struct {
	Rank     int
	MaxIters int
	Tol      float64
	Seed     int64
	// NormX is ‖X‖ of the input tensor, used by the fit identity.
	NormX float64
	// ErrPrefix names the calling package in error messages ("cpd",
	// "dist"); empty means "als".
	ErrPrefix string
	// MaxSweepRetries bounds how many times one sweep may be restarted
	// through a SweepRecoverer kernel before its error becomes fatal.
	// 0 (the default) disables sweep retry entirely.
	MaxSweepRetries int
	// Ctx cancels the decomposition between mode products: the loop
	// checks it before StartSweep and before every MTTKRP dispatch, so a
	// canceled run stops within one mode product rather than finishing
	// the decomposition. Cancellation is never retryable (it is not a
	// kernel fault); the partial result is returned with ctx's error.
	// nil means never canceled.
	Ctx context.Context
}

// Result is a fitted Kruskal tensor with one factor per mode.
type Result struct {
	Lambda    []float64
	Factors   []*la.Matrix
	Fits      []float64
	Iters     int
	Converged bool
	// Phases buckets the decomposition's wall time: MTTKRP dispatches
	// (plus the memoized path's StartSweep contraction), the
	// normal-equation solves, and the fit evaluation. Accumulated as the
	// loop runs, so a partial result from a mid-sweep error still carries
	// the time spent so far. Retried sweeps keep their aborted attempts'
	// time — it was really spent.
	Phases metrics.PhaseTimes
	// SweepRetries counts sweeps restarted through a SweepRecoverer
	// after a kernel failure (0 on a healthy run).
	SweepRetries int
}

// Run executes CP-ALS sweeps over k until convergence or MaxIters. On a
// mid-sweep error the partial result is returned alongside the error.
func Run(k Kernel, cfg Config) (*Result, error) {
	pfx := cfg.ErrPrefix
	if pfx == "" {
		pfx = "als"
	}
	dims := k.Dims()
	n := len(dims)
	r := cfg.Rank
	if r <= 0 {
		return nil, fmt.Errorf("%s: rank must be positive, got %d", pfx, r)
	}
	if n < 2 {
		return nil, fmt.Errorf("%s: CP-ALS needs order >= 2, got %d", pfx, n)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 50
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-5
	}

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{
		Lambda:  make([]float64, r),
		Factors: make([]*la.Matrix, n),
		Fits:    make([]float64, 0, cfg.MaxIters),
	}
	for mode := 0; mode < n; mode++ {
		m := la.NewMatrix(dims[mode], r)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		res.Factors[mode] = m
	}
	workers := 0
	if wc, ok := k.(WorkerCounter); ok {
		workers = wc.Workers()
	}
	ws := newWorkspace(n, r, workers)
	// Mode 0 is the first a sweep updates and reads only the other
	// modes' Grams, so its own is first computed after its solve.
	for mode := 1; mode < n; mode++ {
		ws.dense.Gram(ws.grams[mode], res.Factors[mode])
	}

	outs := make([]*la.Matrix, n)
	for mode := 0; mode < n; mode++ {
		outs[mode] = la.NewMatrix(dims[mode], r)
	}

	starter, _ := k.(SweepStarter)
	recoverer, _ := k.(SweepRecoverer)
	// runSweep executes one full ALS sweep against the current factors,
	// reporting the failing mode (-1 for StartSweep) and whether the
	// error is a retryable kernel failure (solve errors are not).
	runSweep := func() (failedMode int, retryable bool, err error) {
		if starter != nil {
			if err := ctx.Err(); err != nil {
				return -1, false, fmt.Errorf("%s: canceled: %w", pfx, err)
			}
			t0 := time.Now()
			err := starter.StartSweep(res.Factors)
			res.Phases.MTTKRPNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return -1, true, err
			}
		}
		for mode := 0; mode < n; mode++ {
			if err := ctx.Err(); err != nil {
				return mode, false, fmt.Errorf("%s: canceled before mode-%d product: %w", pfx, mode+1, err)
			}
			t0 := time.Now()
			err := k.MTTKRP(mode, res.Factors, outs[mode])
			res.Phases.MTTKRPNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return mode, true, err
			}
			t0 = time.Now()
			err = ws.update(mode, res.Factors[mode], outs[mode], res.Lambda, rng)
			res.Phases.SolveNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return mode, false, fmt.Errorf("%s: mode-%d solve: %w", pfx, mode+1, err)
			}
		}
		return -1, true, nil
	}
	prevFit := 0.0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Retryable sweep: a mid-sweep kernel failure is handed to the
		// kernel's SweepRecoverer (if any); on recovery — e.g. after the
		// distributed runtime re-partitioned around a crashed rank — the
		// sweep restarts against the current (possibly half-updated)
		// factors, which is still a valid ALS state. On a fault-free run
		// this loop runs the sweep exactly once, preserving the rng
		// stream and trajectory bit for bit.
		for attempt := 0; ; attempt++ {
			failedMode, retryable, err := runSweep()
			if err == nil {
				break
			}
			if !retryable || recoverer == nil || attempt >= cfg.MaxSweepRetries ||
				!recoverer.RecoverSweep(iter, failedMode, attempt, err) {
				return res, err
			}
			res.SweepRetries++
		}

		t0 := time.Now()
		fit := ws.fit(cfg.NormX, res, outs[n-1])
		res.Phases.NormNS += time.Since(t0).Nanoseconds()
		res.Fits = append(res.Fits, fit)
		res.Iters = iter + 1
		if iter > 0 && math.Abs(fit-prevFit) < cfg.Tol {
			res.Converged = true
			break
		}
		prevFit = fit
	}
	return res, nil
}

// workspace is one Run's dense-phase state: the Dense that runs the
// Gram, solve and normalise products on the kernel's worker count and
// holds the Cholesky buffers, each mode's Gram, and the Hadamard
// products V (one mode's normal equations) and gAll (the fit's model
// norm). It is sized once per Run, so a sweep allocates nothing.
//
//spblock:workspace
type workspace struct {
	dense   *la.Dense
	grams   []*la.Matrix
	v, gAll *la.Matrix
}

//spblock:coldpath
func newWorkspace(order, rank, workers int) *workspace {
	ws := &workspace{
		dense: la.NewDense(workers),
		grams: make([]*la.Matrix, order),
		v:     la.NewMatrix(rank, rank),
		gAll:  la.NewMatrix(rank, rank),
	}
	// The Grams start as NaN: each is written before it is read, so a
	// read of an unwritten one would show as a NaN fit.
	for m := range ws.grams {
		ws.grams[m] = la.NewMatrix(rank, rank)
		for i := range ws.grams[m].Data {
			ws.grams[m].Data[i] = math.NaN()
		}
	}
	return ws //spblock:allow constructor hands a fresh workspace to its Run
}

// hadamard sets dst to the element-wise product of the Grams of every
// mode except skip (-1 skips none).
//
//spblock:hotpath
func (ws *workspace) hadamard(dst *la.Matrix, skip int) {
	first := true
	for m, g := range ws.grams {
		if m == skip {
			continue
		}
		if first {
			dst.CopyFrom(g)
			first = false
		} else {
			la.HadamardInPlace(dst, g)
		}
	}
}

// update is one mode's least-squares step: with V the Hadamard product
// of the other modes' Grams, factor = mttkrp·V⁻¹, its column norms go to
// lambda as its columns are normalised, dead columns are re-seeded from
// rng, and the mode's Gram is refreshed.
//
//spblock:hotpath
func (ws *workspace) update(mode int, factor, mttkrp *la.Matrix, lambda []float64, rng *rand.Rand) error {
	ws.hadamard(ws.v, mode)
	factor.CopyFrom(mttkrp)
	if err := ws.dense.SolveSPD(ws.v, factor); err != nil {
		return err
	}
	ws.dense.NormalizeColumns(lambda, factor)
	// Guard against dead columns: a zero column would make all later
	// Gram products singular; re-seed it randomly.
	for q, l := range lambda {
		if l == 0 {
			for i := 0; i < factor.Rows; i++ {
				factor.Data[i*factor.Stride+q] = rng.Float64()
			}
		}
	}
	ws.dense.Gram(ws.grams[mode], factor)
	return nil
}

// fit evaluates 1 − ‖X − M‖/‖X‖ with the standard identity
// ‖X − M‖² = ‖X‖² + ‖M‖² − 2⟨X, M⟩: ‖M‖² = λᵀ (∘_n G_n) λ, and ⟨X, M⟩
// falls out of the last mode's MTTKRP against the (normalised) last
// factor and λ.
//
//spblock:hotpath
func (ws *workspace) fit(normX float64, res *Result, lastMTTKRP *la.Matrix) float64 {
	r := len(res.Lambda)
	ws.hadamard(ws.gAll, -1)
	var normM2 float64
	for p := 0; p < r; p++ {
		row := ws.gAll.Row(p)
		for q := 0; q < r; q++ {
			normM2 += res.Lambda[p] * res.Lambda[q] * row[q]
		}
	}
	if normM2 < 0 {
		normM2 = 0
	}
	var inner float64
	last := res.Factors[len(res.Factors)-1]
	for i := 0; i < last.Rows; i++ {
		frow, mrow := last.Row(i), lastMTTKRP.Row(i)
		for q := 0; q < r; q++ {
			inner += res.Lambda[q] * frow[q] * mrow[q]
		}
	}
	residual2 := normX*normX + normM2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(residual2)/normX
}
