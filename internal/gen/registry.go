package gen

import (
	"fmt"
	"sort"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Kind identifies a dataset family.
type Kind int

const (
	// KindPoisson marks the synthetic Poisson count tensors
	// (Poisson1–Poisson3 in Table II).
	KindPoisson Kind = iota
	// KindClustered marks the real-world stand-ins (NELL-2, Netflix,
	// Reddit, Amazon) generated with dense sub-structure.
	KindClustered
)

func (k Kind) String() string {
	switch k {
	case KindPoisson:
		return "poisson"
	case KindClustered:
		return "clustered"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DatasetSpec describes one row of Table II together with the scaled
// shape the offline benchmarks use.
type DatasetSpec struct {
	Name string
	Kind Kind

	// PaperDims and PaperNNZ are the shapes reported in Table II.
	PaperDims tensor.Dims
	PaperNNZ  int64

	// BenchDims and BenchNNZ are the scaled shapes generated for the
	// single-core reproduction (chosen so each tensor builds and runs
	// in seconds while keeping the mode-length *ratios* of the paper).
	BenchDims tensor.Dims
	BenchNNZ  int

	// Generator knobs.
	Clusters    int
	ClusterFrac float64
	ClusterSide float64
	ZipfS       float64
	Components  int
	Spread      float64
}

// PaperSparsity returns nnz / volume for the paper-scale shape.
func (d DatasetSpec) PaperSparsity() float64 {
	return float64(d.PaperNNZ) / d.PaperDims.Volume()
}

// Generate builds the bench-scale tensor deterministically from seed.
func (d DatasetSpec) Generate(seed int64) (*tensor.COO, error) {
	dims := d.BenchDims[:]
	var (
		t   *nmode.Tensor
		err error
	)
	switch d.Kind {
	case KindPoisson:
		t, err = PoissonN(PoissonNParams{
			Dims:       dims,
			Events:     d.BenchNNZ + d.BenchNNZ/8,
			Components: d.Components,
			Spread:     d.Spread,
		}, seed)
	case KindClustered:
		t, err = ClusteredN(ClusteredNParams{
			Dims:        dims,
			NNZ:         d.BenchNNZ,
			Clusters:    d.Clusters,
			ClusterFrac: d.ClusterFrac,
			ClusterSide: d.ClusterSide,
			ZipfS:       d.ZipfS,
		}, seed)
	default:
		return nil, fmt.Errorf("gen: unknown dataset kind %v", d.Kind)
	}
	if err != nil {
		return nil, err
	}
	return tensor.FromNMode(t)
}

// GenerateAt builds the tensor at an arbitrary shape using the spec's
// generator knobs — used by experiments that sweep sizes.
func (d DatasetSpec) GenerateAt(dims tensor.Dims, nnz int, seed int64) (*tensor.COO, error) {
	s := d
	s.BenchDims = dims
	s.BenchNNZ = nnz
	return s.Generate(seed)
}

// Registry holds the seven data sets of Table II, keyed by name.
// Poisson1 is kept at full paper scale (it is tiny); the others are
// scaled down by roughly 8x per mode (64-512x in nnz) so the whole
// experiment suite runs on a single core.
var Registry = map[string]DatasetSpec{
	"Poisson1": {
		Name: "Poisson1", Kind: KindPoisson,
		PaperDims: tensor.Dims{256, 256, 256}, PaperNNZ: 1_500_000,
		BenchDims: tensor.Dims{256, 256, 256}, BenchNNZ: 1_500_000,
		Components: 16, Spread: 0.5,
	},
	"Poisson2": {
		Name: "Poisson2", Kind: KindPoisson,
		PaperDims: tensor.Dims{2_000, 16_000, 2_000}, PaperNNZ: 121_000_000,
		BenchDims: tensor.Dims{250, 2_000, 250}, BenchNNZ: 1_900_000,
		Components: 16, Spread: 0.35,
	},
	"Poisson3": {
		Name: "Poisson3", Kind: KindPoisson,
		PaperDims: tensor.Dims{30_000, 30_000, 30_000}, PaperNNZ: 135_000_000,
		BenchDims: tensor.Dims{3_750, 3_750, 3_750}, BenchNNZ: 2_100_000,
		Components: 24, Spread: 0.3,
	},
	"NELL2": {
		Name: "NELL2", Kind: KindClustered,
		PaperDims: tensor.Dims{12_000, 9_000, 29_000}, PaperNNZ: 77_000_000,
		BenchDims: tensor.Dims{1_500, 1_125, 3_625}, BenchNNZ: 1_200_000,
		Clusters: 48, ClusterFrac: 0.65, ClusterSide: 0.03, ZipfS: 1.05,
	},
	"Netflix": {
		Name: "Netflix", Kind: KindClustered,
		PaperDims: tensor.Dims{480_000, 18_000, 80}, PaperNNZ: 80_000_000,
		BenchDims: tensor.Dims{60_000, 2_250, 80}, BenchNNZ: 1_250_000,
		Clusters: 64, ClusterFrac: 0.6, ClusterSide: 0.02, ZipfS: 1.1,
	},
	"Reddit": {
		Name: "Reddit", Kind: KindClustered,
		PaperDims: tensor.Dims{1_200_000, 23_000, 1_300_000}, PaperNNZ: 924_000_000,
		BenchDims: tensor.Dims{75_000, 1_450, 81_250}, BenchNNZ: 1_800_000,
		Clusters: 96, ClusterFrac: 0.55, ClusterSide: 0.012, ZipfS: 1.15,
	},
	"Amazon": {
		Name: "Amazon", Kind: KindClustered,
		PaperDims: tensor.Dims{4_800_000, 1_800_000, 1_800_000}, PaperNNZ: 1_700_000_000,
		BenchDims: tensor.Dims{150_000, 56_250, 56_250}, BenchNNZ: 1_700_000,
		Clusters: 128, ClusterFrac: 0.7, ClusterSide: 0.008, ZipfS: 1.1,
	},
}

// Names returns the registry keys in Table II order.
func Names() []string {
	order := map[string]int{
		"Poisson1": 0, "Poisson2": 1, "Poisson3": 2,
		"NELL2": 3, "Netflix": 4, "Reddit": 5, "Amazon": 6,
	}
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return order[names[a]] < order[names[b]] })
	return names
}

// Lookup fetches a spec by name.
func Lookup(name string) (DatasetSpec, error) {
	d, ok := Registry[name]
	if !ok {
		return DatasetSpec{}, fmt.Errorf("gen: unknown dataset %q (have %v)", name, Names())
	}
	return d, nil
}
