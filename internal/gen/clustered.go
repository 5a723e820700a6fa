package gen

import (
	"fmt"
	"math/rand"

	"spblock/internal/nmode"
)

// ClusteredNParams configures the generator that stands in for the
// real-world FROSTT tensors, at any order. Sec. VI-C of the paper
// attributes the higher real-data speedups to "nice dense
// sub-structures" absent from the Poisson sets; this generator
// reproduces that structure directly:
//
//   - a fraction ClusterFrac of the nonzeros falls into dense
//     axis-aligned sub-boxes ("communities": users × related items ×
//     short time spans in the Netflix reading);
//   - the remaining background nonzeros follow independent power-law
//     (Zipf-like) popularity per mode, matching the heavy-tailed
//     marginals of review and web data.
type ClusteredNParams struct {
	Dims []int
	// NNZ is the target number of distinct nonzeros.
	NNZ int
	// Clusters is the number of dense sub-boxes. Defaults to 64.
	Clusters int
	// ClusterFrac is the fraction of nonzeros placed inside clusters.
	// Defaults to 0.6.
	ClusterFrac float64
	// ClusterSide scales cluster box side lengths relative to the mode
	// length; side = max(4, ClusterSide * mode length). Defaults to 0.02.
	ClusterSide float64
	// ZipfS is the background power-law exponent per mode. Defaults to 1.1.
	ZipfS float64
}

// ClusteredN generates a deduplicated tensor with the configured dense
// sub-structure, sorted as dedup describes. Values are positive counts
// (event multiplicities), like the rating/count data the real sets
// contain.
func ClusteredN(p ClusteredNParams, seed int64) (*nmode.Tensor, error) {
	n := len(p.Dims)
	if err := validateDimsN(p.Dims); err != nil {
		return nil, err
	}
	if p.NNZ <= 0 {
		return nil, fmt.Errorf("gen: NNZ must be positive, got %d", p.NNZ)
	}
	clusters := p.Clusters
	if clusters <= 0 {
		clusters = 64
	}
	frac := p.ClusterFrac
	if frac <= 0 {
		frac = 0.6
	}
	if frac > 1 {
		frac = 1
	}
	side := p.ClusterSide
	if side <= 0 {
		side = 0.02
	}
	zipfS := p.ZipfS
	if zipfS <= 0 {
		zipfS = 1.1
	}

	setup := newRand(seed, 3)
	boxes := make([][][2]int, clusters)
	weights := make([]float64, clusters)
	for c := 0; c < clusters; c++ {
		boxes[c] = make([][2]int, n)
		for m := 0; m < n; m++ {
			w := int(side * float64(p.Dims[m]))
			if w < 4 {
				w = 4
			}
			if w > p.Dims[m] {
				w = p.Dims[m]
			}
			lo := 0
			if p.Dims[m] > w {
				lo = setup.Intn(p.Dims[m] - w)
			}
			boxes[c][m] = [2]int{lo, lo + w}
		}
		weights[c] = setup.ExpFloat64() + 0.2
	}
	boxDist := NewCategorical(weights)

	// Background mode distributions: permuted power laws, so hubs are
	// scattered through the index space as they are in collected data.
	bg := make([]*Categorical, n)
	for m := 0; m < n; m++ {
		bg[m] = NewCategorical(PowerLawWeights(p.Dims[m], zipfS, SubSeed(seed, 10+m)))
	}

	draw := newRand(seed, 4)
	// Oversample: duplicates merge in dedup, so aim above the target
	// and trim. 25% headroom is enough for the densities of Table II.
	events := p.NNZ + p.NNZ/4 + 16
	t := nmode.NewTensor(p.Dims, events)
	coords := make([]nmode.Index, n)
	for e := 0; e < events; e++ {
		if draw.Float64() < frac {
			b := boxes[boxDist.Sample(draw)]
			for m := 0; m < n; m++ {
				coords[m] = nmode.Index(b[m][0] + draw.Intn(b[m][1]-b[m][0]))
			}
		} else {
			for m := 0; m < n; m++ {
				coords[m] = nmode.Index(bg[m].Sample(draw))
			}
		}
		t.Append(coords, 1)
	}
	if err := dedup(t); err != nil {
		return nil, err
	}
	trimToN(t, p.NNZ, draw)
	return t, nil
}

// trimToN removes random entries until the tensor holds at most target
// nonzeros, keeping the sorted order.
func trimToN(t *nmode.Tensor, target int, rng *rand.Rand) {
	excess := t.NNZ() - target
	if excess <= 0 {
		return
	}
	n := t.NNZ()
	victims := make(map[int]bool, excess)
	for len(victims) < excess {
		victims[rng.Intn(n)] = true
	}
	w := 0
	for p := 0; p < n; p++ {
		if victims[p] {
			continue
		}
		for m := range t.Idx {
			t.Idx[m][w] = t.Idx[m][p]
		}
		t.Val[w] = t.Val[p]
		w++
	}
	for m := range t.Idx {
		t.Idx[m] = t.Idx[m][:w]
	}
	t.Val = t.Val[:w]
}
