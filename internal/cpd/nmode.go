package cpd

import (
	"math"

	"spblock/internal/als"
	"spblock/internal/la"
	"spblock/internal/nmode"
)

// NOptions configures an order-N CP-ALS decomposition.
type NOptions struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 50.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Kernel configures the N-mode MTTKRP (rank strips, workers, MB
	// grid) at every order, third-order inputs included.
	Kernel nmode.Options
	// Seed drives the random factor initialisation.
	Seed int64
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

// CPALSN decomposes an order-N sparse tensor with alternating least
// squares on the unified engine: one pooled mode-rooted executor per
// mode, built once per decomposition (nmode.NewEngine validates t and
// its order).
func CPALSN(t *nmode.Tensor, opts NOptions) (*Result, error) {
	eng, err := nmode.NewEngine(t, opts.Kernel)
	if err != nil {
		return nil, err
	}
	var normX float64
	for _, v := range t.Val {
		normX += v * v
	}
	return decompose(&nKernel{eng}, als.Config{Rank: opts.Rank, MaxIters: opts.MaxIters,
		Tol: opts.Tol, Seed: opts.Seed, NormX: math.Sqrt(normX)})
}
