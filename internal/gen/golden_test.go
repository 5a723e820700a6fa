package gen

import (
	"testing"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
	"spblock/internal/testutil/digest"
)

// The generators' output for a seed is part of the contract: the
// benchmarks, the CI smoke tensors and the recorded experiments are all
// regenerated from seeds. These digests (dims, coordinates and value
// bits in stored order) pin every generator at every order.

// goldenSpecs holds each Table II spec's digest from GenerateAt at 1/16
// of its bench dims (at least 8 per mode) and 1/400 of its bench nnz,
// seed 5.
var goldenSpecs = map[string]string{
	"Poisson1": "fb14055c13e2ee8b0c3672b8a2bbd4d3ea5e829ec44828ac02b65cf21ac82be2",
	"Poisson2": "4da5905843df46732f2ea035493d92a5685a4e0063503a057dc06c35ed83d411",
	"Poisson3": "9e836b23dd37d394abae042bd753b5b2522ce6afd33fd63f086949d420b1d59e",
	"NELL2":    "a80a70a7943a14108817bb17c55ccf7c1082bda781bba24731fba5f7759f99de",
	"Netflix":  "4e78236d00c709fc50f83f54b90999b81cb0e51bee55e20118c4ff3590fc70b0",
	"Reddit":   "37ee6e3b297757a5fbf7589c90fd906e8c8ab66cdda7d20024dcbcad0a13ad53",
	"Amazon":   "b5a6fde91fba792230f76c15ecfb9222e6ed168aa670d8c53175f3bb670d7ab1",
}

func TestGoldenRegistryDigests(t *testing.T) {
	for _, name := range Names() {
		spec := Registry[name]
		dims := spec.BenchDims
		for m := range dims {
			dims[m] = max(dims[m]/16, 8)
		}
		x, err := spec.GenerateAt(dims, spec.BenchNNZ/400, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := digest.Tensor(tensor.ToNMode(x)); got != goldenSpecs[name] {
			t.Errorf("%s at %v: digest %s, want %s", name, dims, got, goldenSpecs[name])
		}
	}
}

func TestGoldenOrder4Digests(t *testing.T) {
	p, err := PoissonN(PoissonNParams{Dims: []int{24, 20, 16, 12}, Events: 6000}, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ClusteredN(ClusteredNParams{Dims: []int{30, 24, 20, 10}, NNZ: 4000}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    *nmode.Tensor
		want string
	}{
		{"PoissonN", p, "b89d39da348ce2e6395e23081d2399e6d331b785c005f9b29c736c4e56e0187e"},
		{"ClusteredN", c, "bb9ac920ea123fe11676d753d84132504d56a7c36f42fb899fd255867a045657"},
	} {
		if got := digest.Tensor(tc.x); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
