package dist

import (
	"fmt"
	"math"

	"spblock/internal/als"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// CPOptions configures a distributed CP-ALS decomposition.
type CPOptions struct {
	// Rank is the decomposition rank R. Required; must be divisible by
	// the configured RankParts.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 20.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Seed drives the random factor initialisation.
	Seed int64
	// MaxSweepRetries bounds how many times one failed sweep is retried
	// after the runtime recovers (re-rolled fault epoch, or a
	// re-partition around a crashed rank). Defaults to 3 when cfg.Faults
	// is set, 0 otherwise — a fault-free run never retries.
	MaxSweepRetries int
}

// CPResult reports a distributed decomposition.
type CPResult struct {
	Lambda    []float64
	Factors   [3]*la.Matrix
	Fits      []float64
	Iters     int
	Converged bool
	// ModeledSeconds accumulates the modeled parallel time of every
	// distributed MTTKRP executed (3 per sweep) — the quantity a real
	// cluster would spend in the kernel this paper optimises.
	ModeledSeconds float64
	// CommBytes accumulates point-to-point payload bytes across all
	// MTTKRP calls.
	CommBytes int64
	// Phases buckets the driver-side wall time by phase (MTTKRP vs solve
	// vs fit) — see metrics.PhaseTimes. The MTTKRP bucket measures the
	// in-process simulation, not the modeled cluster time.
	Phases metrics.PhaseTimes
	// Comm carries the fault-tolerance telemetry: collective retries and
	// timeouts, modeled backoff, crashes, sweep retries and degraded
	// sweeps. All zero on a healthy run.
	Comm metrics.CommStats
	// SurvivingRanks is the rank count the decomposition finished on —
	// equal to the configured Ranks unless a crash forced a
	// re-partition over the survivors.
	SurvivingRanks int
}

// Fit returns the final fit, or 0 before any sweep ran.
func (r *CPResult) Fit() float64 {
	if len(r.Fits) == 0 {
		return 0
	}
	return r.Fits[len(r.Fits)-1]
}

// modePerms expresses mode n's MTTKRP as the mode-1 product the
// partitioner distributes: modePerms[n] permutes the tensor so mode n
// leads and the remaining modes keep ascending order, and those two
// modes' factors act as that product's B and C.
var modePerms = [3][]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}}

// distKernel adapts the distributed runtime to the shared ALS core:
// each mode product runs on its partitioned engine, the result is
// copied into the core's output buffer, and the modeled time /
// communication volume accumulate on the CPResult as they always did.
//
// It is also the fault-recovery seat: on a kernel failure the ALS loop
// calls RecoverSweep, which either simply re-rolls the fault epoch (a
// transient loss — timeouts exhausted on a lossy link) or, after a
// crash, re-partitions all three engines over the surviving ranks and
// lets the decomposition continue degraded.
type distKernel struct {
	dims    []int
	pts     [3]*nmode.Tensor // permuted views, kept for re-partitioning
	cfg     Config           // current (possibly shrunken) configuration
	rank    int
	engines [3]*Engine
	res     *CPResult
	// degradedAt is the sweep index of the first re-partition, -1 while
	// the full rank set is alive.
	degradedAt int
}

func (k *distKernel) Dims() []int { return k.dims }

func (k *distKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	perm := modePerms[mode]
	dr, err := k.engines[mode].Run(factors[perm[1]], factors[perm[2]])
	if dr != nil {
		// Account the attempt's modeled time, traffic and reliability
		// telemetry even when it failed — the cluster really spent it.
		k.res.ModeledSeconds += dr.ModeledSeconds
		k.res.CommBytes += dr.Stats.TotalBytes()
		k.res.Comm.Retries += dr.Stats.TotalRetries()
		k.res.Comm.Timeouts += dr.Stats.TotalTimeouts()
		k.res.Comm.BackoffSec += dr.Stats.TotalBackoffSec()
	}
	if err != nil {
		return err
	}
	out.CopyFrom(dr.Out)
	return nil
}

// RecoverSweep implements als.SweepRecoverer: it decides whether a
// failed sweep can be retried and prepares the runtime for the retry.
func (k *distKernel) RecoverSweep(sweep, mode, attempt int, err error) bool {
	crashed := mpi.CrashedRanks(err)
	if len(crashed) == 0 {
		// Transient loss (drops/corruption past the retry budget, or a
		// stall outliving the timeout): the engines are intact, and the
		// fault plan draws a fresh epoch on the next Run, so simply
		// retrying the sweep is meaningful.
		return true
	}
	// A crash: re-partition over the survivors, like a resource manager
	// shrinking the job. The replay keeps the same tensor orientation
	// views; only the grid and block ownership change.
	survivors := k.cfg.Ranks - len(crashed)
	if survivors < 1 {
		return false
	}
	cfg := k.cfg
	cfg.Ranks = survivors
	if cfg.RankParts > 1 && (survivors%cfg.RankParts != 0 || k.rank%cfg.RankParts != 0) {
		// The 4D factorisation no longer divides evenly; degrade to the
		// medium-grained 3D decomposition.
		cfg.RankParts = 1
	}
	// The dead node is gone from the new world; keep the link faults.
	cfg.Faults = cfg.Faults.WithoutCrash()
	var engines [3]*Engine
	for n := 0; n < 3; n++ {
		eng, err2 := NewEngine(k.pts[n], k.rank, cfg)
		if err2 != nil {
			return false
		}
		engines[n] = eng
	}
	k.engines = engines
	k.cfg = cfg
	k.res.Comm.Crashes += len(crashed)
	if k.degradedAt < 0 {
		k.degradedAt = sweep
	}
	return true
}

// CPALS runs the full CP-ALS decomposition with every MTTKRP executed
// on the distributed runtime (one engine per mode, partitioned once).
// The R×R normal-equation solves and column normalisations run
// centrally — they are O(I·R²) work against the MTTKRP's O(nnz·R),
// which is the standard practice the paper's distributed evaluation
// follows (it measures MTTKRP time). The sweep loop is the shared
// internal/als core, so the trajectory matches cpd.CPALS bit for bit
// when the kernels agree numerically.
func CPALS(t *nmode.Tensor, cfg Config, opts CPOptions) (*CPResult, error) {
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("dist: rank must be positive, got %d", opts.Rank)
	}
	if err := tensor.CheckOrder3(t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 20
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-5
	}
	r := opts.Rank
	if opts.MaxSweepRetries <= 0 && cfg.Faults != nil {
		opts.MaxSweepRetries = 3
	}

	// One engine per mode, partitioned once per decomposition. The
	// permuted inputs are zero-copy views (Tensor.Permute); the
	// partitioner and block builder only read them — and the recovery
	// path re-partitions the same views after a crash.
	var pts [3]*nmode.Tensor
	var engines [3]*Engine
	for n := 0; n < 3; n++ {
		pt, err := t.Permute(modePerms[n])
		if err != nil {
			return nil, err
		}
		pts[n] = pt
		eng, err := NewEngine(pt, r, cfg)
		if err != nil {
			return nil, fmt.Errorf("dist: mode-%d engine: %w", n+1, err)
		}
		engines[n] = eng
	}

	res := &CPResult{SurvivingRanks: cfg.Ranks}
	kernel := &distKernel{
		dims:       t.Dims,
		pts:        pts,
		cfg:        cfg,
		rank:       r,
		engines:    engines,
		res:        res,
		degradedAt: -1,
	}
	ares, aerr := als.Run(kernel, als.Config{
		Rank:            r,
		MaxIters:        opts.MaxIters,
		Tol:             opts.Tol,
		Seed:            opts.Seed,
		NormX:           math.Sqrt(t.NormSquared()),
		ErrPrefix:       "dist",
		MaxSweepRetries: opts.MaxSweepRetries,
	})
	if ares == nil {
		return nil, aerr
	}
	res.Lambda = ares.Lambda
	copy(res.Factors[:], ares.Factors)
	res.Fits = ares.Fits
	res.Iters = ares.Iters
	res.Converged = ares.Converged
	res.Phases = ares.Phases
	res.Comm.SweepRetries = ares.SweepRetries
	res.SurvivingRanks = kernel.cfg.Ranks
	if kernel.degradedAt >= 0 && ares.Iters > kernel.degradedAt {
		res.Comm.DegradedSweeps = ares.Iters - kernel.degradedAt
	}
	return res, aerr
}
