package cpd

import (
	"math"

	"spblock/internal/als"
	"spblock/internal/core"
	"spblock/internal/engine"
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

// nKernel adapts the order-N engine to the shared ALS core.
type nKernel struct {
	dims []int
	eng  *engine.NEngine
}

func (k *nKernel) Dims() []int { return k.dims }

func (k *nKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	return k.eng.Run(mode, factors, out)
}

// Workers gives the dense ALS phase the engine's current parallelism
// (als.WorkerCounter).
func (k *nKernel) Workers() int { return k.eng.Workers() }

// CPALSN decomposes an order-N sparse tensor with alternating least
// squares on the unified engine: one pooled mode-rooted executor per
// mode, built once per decomposition (NewNEngine validates t and its
// order).
func CPALSN(t *nmode.Tensor, opts NOptions) (*Result, error) {
	eng, err := engine.NewNEngine(t, opts.Kernel)
	if err != nil {
		return nil, err
	}
	var normX float64
	for _, v := range t.Val {
		normX += v * v
	}
	return decompose(&nKernel{dims: t.Dims, eng: eng}, als.Config{Rank: opts.Rank, MaxIters: opts.MaxIters,
		Tol: opts.Tol, Seed: opts.Seed, NormX: math.Sqrt(normX)}, core.Plan{})
}
