package cpd

import (
	"math"
	"math/rand"
	"testing"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// plantedTensorN builds a dense order-N tensor of exact rank r.
func plantedTensorN(seed int64, dims []int, r int) *nmode.Tensor {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*la.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = la.NewMatrix(d, r)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64() + 0.1
		}
	}
	t := nmode.NewTensor(dims, 0)
	coords := make([]nmode.Index, len(dims))
	var fill func(mode int)
	fill = func(mode int) {
		if mode == len(dims) {
			var s float64
			for q := 0; q < r; q++ {
				v := 1.0
				for m := range dims {
					v *= factors[m].At(int(coords[m]), q)
				}
				s += v
			}
			t.Append(coords, s)
			return
		}
		for i := 0; i < dims[mode]; i++ {
			coords[mode] = nmode.Index(i)
			fill(mode + 1)
		}
	}
	fill(0)
	return t
}

func TestCPALSNRecoversOrder4Structure(t *testing.T) {
	dims := []int{5, 6, 4, 5}
	x := plantedTensorN(2, dims, 2)
	res, err := CPALSN(x, NOptions{Rank: 2, MaxIters: 300, Tol: 1e-11, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.995 {
		t.Fatalf("fit = %v, want > 0.995 for an exactly rank-2 tensor", res.Fit())
	}
	if len(res.Factors) != 4 || len(res.Lambda) != 2 {
		t.Fatal("result shape wrong")
	}
}

func TestCPALSNMatchesThreeModeCPALS(t *testing.T) {
	// On an order-3 tensor, the generic N-mode path and the specialised
	// third-order path must converge to comparable fits.
	dims3 := []int{8, 7, 6}
	xN := plantedTensorN(3, dims3, 3)

	res, err := CPALSN(xN, NOptions{Rank: 3, MaxIters: 60, Tol: 1e-10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The specialised path on the same data.
	x3 := tensorFromN(xN)
	res3, err := CPALS(x3, Options{Rank: 3, MaxIters: 60, Tol: 1e-10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fit()-res3.Fit()) > 0.02 {
		t.Fatalf("N-mode fit %v vs 3-mode fit %v", res.Fit(), res3.Fit())
	}
}

// TestCPALSNTrajectoryMatchesCPALS is the strong form of the agreement
// test: with the shared internal/als sweep loop, the same seed, and the
// default kernels (SPLATT in core, the unblocked nmode walk in CPALSN,
// which end every fiber with the same fused epilogue), the two entry
// points must produce the same fit trajectory — not just comparable
// endpoints.
func TestCPALSNTrajectoryMatchesCPALS(t *testing.T) {
	dims3 := []int{9, 8, 7}
	xN := plantedTensorN(11, dims3, 3)
	x3 := tensorFromN(xN)

	resN, err := CPALSN(xN, NOptions{Rank: 3, MaxIters: 25, Tol: 1e-12, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := CPALS(x3, Options{Rank: 3, MaxIters: 25, Tol: 1e-12, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if resN.Iters != res3.Iters || len(resN.Fits) != len(res3.Fits) {
		t.Fatalf("iters %d vs %d, fits %d vs %d",
			resN.Iters, res3.Iters, len(resN.Fits), len(res3.Fits))
	}
	for i := range resN.Fits {
		if d := math.Abs(resN.Fits[i] - res3.Fits[i]); d > 1e-8 {
			t.Fatalf("sweep %d: fit %v vs %v (diff %v)", i, resN.Fits[i], res3.Fits[i], d)
		}
	}
	for q := range resN.Lambda {
		if d := math.Abs(resN.Lambda[q] - res3.Lambda[q]); d > 1e-6 {
			t.Fatalf("lambda[%d]: %v vs %v", q, resN.Lambda[q], res3.Lambda[q])
		}
	}
	for m := 0; m < 3; m++ {
		if d := resN.Factors[m].MaxAbsDiff(res3.Factors[m]); d > 1e-6 {
			t.Fatalf("factor %d differs by %v", m, d)
		}
	}
}

// tensorFromN converts an order-3 nmode.Tensor to the tensor.COO form.
func tensorFromN(x *nmode.Tensor) *tensor.COO {
	t := tensor.NewCOO(tensor.Dims{x.Dims[0], x.Dims[1], x.Dims[2]}, x.NNZ())
	for p := 0; p < x.NNZ(); p++ {
		t.Append(x.Idx[0][p], x.Idx[1][p], x.Idx[2][p], x.Val[p])
	}
	return t
}

func TestCPALSNMonotoneFits(t *testing.T) {
	dims := []int{6, 5, 4, 3}
	x := plantedTensorN(6, dims, 3)
	res, err := CPALSN(x, NOptions{Rank: 2, MaxIters: 30, Tol: 1e-12, Seed: 7,
		Kernel: nmode.Options{RankBlockCols: 16}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1]-1e-8 {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, res.Fits[i-1], res.Fits[i])
		}
	}
	for _, f := range res.Fits {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("non-finite fit %v", f)
		}
	}
}

func TestCPALSNOrder2IsMatrixFactorisation(t *testing.T) {
	// Order-2 CP is just a low-rank matrix factorisation; an exactly
	// rank-1 matrix must fit essentially perfectly.
	dims := []int{10, 12}
	x := plantedTensorN(8, dims, 1)
	res, err := CPALSN(x, NOptions{Rank: 1, MaxIters: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.9999 {
		t.Fatalf("rank-1 matrix fit = %v", res.Fit())
	}
}
