package cpd

import (
	"math"

	"spblock/internal/als"
	"spblock/internal/core"
	"spblock/internal/ooc"
)

// OOCOptions configures an out-of-core CP-ALS decomposition. The
// rank/iteration/seed knobs mirror NOptions; the memory knobs live on
// ooc.Options when the engine is opened.
type OOCOptions struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 50.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Seed drives the random factor initialisation. With the same
	// seed, rank and iteration budget, the streamed decomposition's
	// trajectory is bit-identical to CPALSN over the same tensor with
	// the same blocking grid.
	Seed int64
}

// CPALSOOC decomposes a staged tensor with the shared CP-ALS sweep
// loop, every MTTKRP product streamed through e's bounded-memory
// prefetch pipeline. Only the working set of blocks plus the factor
// matrices are resident; the tensor itself never is. ‖X‖ comes from
// the staging pass (same summation order as the in-memory drivers),
// so the fit sequence matches the in-memory run exactly.
func CPALSOOC(e *ooc.Engine, opts OOCOptions) (*Result, error) {
	return decompose(e, als.Config{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol,
		Seed: opts.Seed, NormX: math.Sqrt(e.NormSq())}, core.Plan{})
}
