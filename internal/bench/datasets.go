package bench

import (
	"fmt"
	"math"
	"sync"

	"spblock/internal/gen"
	"spblock/internal/nmode"
)

// datasetCache memoises generated tensors so a full experiment run
// (which reuses Poisson2/Poisson3/NELL2/Netflix across experiments)
// pays each generation once.
var (
	datasetMu    sync.Mutex
	datasetCache = map[string]*nmode.Tensor{}
)

// Dataset returns the named Table II tensor at the configuration's
// scale. Mode lengths scale with the cube root of Scale and nnz scales
// linearly, which approximately preserves the registry densities.
func Dataset(cfg Config, name string) (*nmode.Tensor, gen.DatasetSpec, error) {
	cfg = cfg.withDefaults()
	spec, err := gen.Lookup(name)
	if err != nil {
		return nil, spec, err
	}
	dims, nnz := scaledShape(spec, cfg.Scale)
	key := fmt.Sprintf("%s/%v/%d/%d", name, dims, nnz, cfg.Seed)
	datasetMu.Lock()
	defer datasetMu.Unlock()
	if t, ok := datasetCache[key]; ok {
		return t, spec, nil
	}
	t, err := spec.GenerateAt(dims, nnz, cfg.Seed)
	if err != nil {
		return nil, spec, err
	}
	datasetCache[key] = t
	return t, spec, nil
}

func scaledShape(spec gen.DatasetSpec, scale float64) ([]int, int) {
	if scale == 1 {
		return spec.BenchDims, spec.BenchNNZ
	}
	dimScale := math.Cbrt(scale)
	dims := make([]int, len(spec.BenchDims))
	v := 1.0
	for m := range dims {
		d := int(float64(spec.BenchDims[m]) * dimScale)
		if d < 16 {
			d = 16
		}
		if d > spec.BenchDims[m] {
			d = spec.BenchDims[m]
		}
		dims[m] = d
		v *= float64(d)
	}
	nnz := int(float64(spec.BenchNNZ) * scale)
	if nnz < 2000 {
		nnz = 2000
	}
	// nnz cannot exceed the (scaled) volume.
	if float64(nnz) > v/2 {
		nnz = int(v / 2)
		if nnz < 1 {
			nnz = 1
		}
	}
	return dims, nnz
}
