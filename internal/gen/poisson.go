package gen

import (
	"fmt"
	"math/rand"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// PoissonNParams configures the Chi & Kolda style generative sampler for
// Poisson ("count") tensors of any order. The model: a nonnegative
// rank-C Kruskal tensor M = Σ_c λ_c a_c ∘ b_c ∘ c_c ∘ … defines Poisson
// rates; sampling `Events` index tuples proportionally to M and
// histogramming them yields entry counts that are (conditionally)
// Poisson. Each event picks a component c ∝ λ_c, then one index per mode
// from that component's categorical distribution.
type PoissonNParams struct {
	Dims []int
	// Events is the number of sampled index tuples; the resulting nnz
	// is slightly lower because collisions merge into counts.
	Events int
	// Components is the generative rank C (not the decomposition rank
	// R used by MTTKRP). Defaults to 16 when zero.
	Components int
	// Spread controls how concentrated each component's per-mode
	// distribution is: a component places its mass on roughly
	// Spread * (mode length) indices. Defaults to 0.25 when zero —
	// wide, mostly unstructured patterns, matching the paper's
	// description of the synthetic sets as "more random sparse
	// patterns".
	Spread float64
}

// PoissonN generates a count tensor. The result is deduplicated (values
// are event counts) and sorted as dedup describes.
func PoissonN(p PoissonNParams, seed int64) (*nmode.Tensor, error) {
	n := len(p.Dims)
	if err := validateDimsN(p.Dims); err != nil {
		return nil, err
	}
	if p.Events <= 0 {
		return nil, fmt.Errorf("gen: Events must be positive, got %d", p.Events)
	}
	comp := p.Components
	if comp <= 0 {
		comp = 16
	}
	spread := p.Spread
	if spread <= 0 {
		spread = 0.25
	}
	if spread > 1 {
		spread = 1
	}

	setup := newRand(seed, 1)
	// Component weights λ: exponential spacing so a few components
	// dominate, as fitted CP models of count data typically show.
	lambda := make([]float64, comp)
	for c := range lambda {
		lambda[c] = setup.ExpFloat64() + 0.1
	}
	compDist := NewCategorical(lambda)

	// Per component, per mode: a categorical over a random support.
	modeDist := make([][]*Categorical, comp)
	for c := 0; c < comp; c++ {
		modeDist[c] = make([]*Categorical, n)
		for m := 0; m < n; m++ {
			modeDist[c][m] = componentModeDist(setup, p.Dims[m], spread)
		}
	}

	draw := newRand(seed, 2)
	t := nmode.NewTensor(p.Dims, p.Events)
	coords := make([]nmode.Index, n)
	for e := 0; e < p.Events; e++ {
		c := compDist.Sample(draw)
		for m := 0; m < n; m++ {
			coords[m] = nmode.Index(modeDist[c][m].Sample(draw))
		}
		t.Append(coords, 1)
	}
	if _, err := tensor.Dedup(t); err != nil {
		return nil, err
	}
	return t, nil
}

// componentModeDist builds one component's distribution over one mode:
// a contiguous-free random subset of about spread*n indices with
// exponential weights. Sampling outside the support has probability 0,
// which is what keeps the rate tensor sparse.
func componentModeDist(rng *rand.Rand, n int, spread float64) *Categorical {
	support := int(spread * float64(n))
	if support < 1 {
		support = 1
	}
	if support > n {
		support = n
	}
	w := make([]float64, n)
	perm := rng.Perm(n)
	for s := 0; s < support; s++ {
		w[perm[s]] = rng.ExpFloat64() + 1e-3
	}
	return NewCategorical(w)
}

func validateDimsN(dims []int) error {
	if len(dims) < 2 {
		return fmt.Errorf("gen: order-%d shape needs at least 2 modes", len(dims))
	}
	for m, d := range dims {
		if d <= 0 {
			return fmt.Errorf("gen: invalid dims %v (mode %d)", dims, m)
		}
	}
	return nil
}
