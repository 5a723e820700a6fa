package cpapr

import (
	"math"
	"math/rand"
	"testing"

	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
)

// plantedCounts builds a small dense count tensor from a nonnegative
// rank-r Kruskal model, rounding model values to integers.
func plantedCounts(seed int64, dims []int, r int) *nmode.Tensor {
	rng := rand.New(rand.NewSource(seed))
	var f [3]*la.Matrix
	for n := 0; n < 3; n++ {
		f[n] = la.NewMatrix(dims[n], r)
		for i := range f[n].Data {
			f[n].Data[i] = 2 * rng.Float64()
		}
	}
	t := nmode.NewTensor(dims, 0)
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var m float64
				for q := 0; q < r; q++ {
					m += f[0].At(i, q) * f[1].At(j, q) * f[2].At(k, q)
				}
				v := math.Round(m)
				if v > 0 {
					t.Append([]nmode.Index{nmode.Index(i), nmode.Index(j), nmode.Index(k)}, v)
				}
			}
		}
	}
	return t
}

func TestValidation(t *testing.T) {
	x := plantedCounts(1, []int{4, 4, 4}, 2)
	if _, err := Decompose(x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	neg := nmode.NewTensor([]int{2, 2, 2}, 0)
	neg.Append([]nmode.Index{0, 0, 0}, -1)
	if _, err := Decompose(neg, Options{Rank: 2}); err == nil {
		t.Fatal("negative values accepted")
	}
	bad := nmode.NewTensor([]int{2, 2, 2}, 0)
	bad.Append([]nmode.Index{5, 0, 0}, 1)
	if _, err := Decompose(bad, Options{Rank: 2}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestKLDecreasesMonotonically(t *testing.T) {
	// Multiplicative updates for KL are provably monotone; the
	// objective must never increase beyond numerical noise.
	x := plantedCounts(2, []int{10, 9, 8}, 3)
	res, err := Decompose(x, Options{Rank: 3, MaxIters: 40, Tol: 1e-15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KL) < 5 {
		t.Fatalf("only %d sweeps ran", len(res.KL))
	}
	for i := 1; i < len(res.KL); i++ {
		if res.KL[i] > res.KL[i-1]+1e-6*math.Abs(res.KL[i-1]) {
			t.Fatalf("KL increased at sweep %d: %v -> %v", i, res.KL[i-1], res.KL[i])
		}
	}
}

func TestFactorsStayNonnegative(t *testing.T) {
	x := plantedCounts(4, []int{8, 8, 8}, 2)
	res, err := Decompose(x, Options{Rank: 4, MaxIters: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for n, f := range res.Factors {
		for _, v := range f.Data {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("factor %d contains %v", n, v)
			}
		}
	}
}

func TestRecoversPlantedModel(t *testing.T) {
	dims := []int{9, 8, 7}
	x := plantedCounts(6, dims, 2)
	res, err := Decompose(x, Options{Rank: 2, MaxIters: 300, Tol: 1e-12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The fitted model should reproduce the stored counts to well under
	// one count on average (the data is exactly low-rank up to
	// rounding).
	var errSum, n float64
	for p := 0; p < x.NNZ(); p++ {
		m := res.ModelValue(int(x.Idx[0][p]), int(x.Idx[1][p]), int(x.Idx[2][p]))
		errSum += math.Abs(m - x.Val[p])
		n++
	}
	if mean := errSum / n; mean > 0.5 {
		t.Fatalf("mean absolute model error %v, want < 0.5 counts", mean)
	}
}

func TestConvergenceFlag(t *testing.T) {
	x := plantedCounts(8, []int{6, 6, 6}, 1)
	res, err := Decompose(x, Options{Rank: 1, MaxIters: 500, Tol: 1e-8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d sweeps (KL %v)", res.Iters, res.FinalKL())
	}
	if res.Iters >= 500 {
		t.Fatal("converged flag with all iterations used")
	}
}

func TestOnGeneratedPoissonData(t *testing.T) {
	// End-to-end with the paper's data generator: decompose a Poisson
	// count tensor sampled from a 4-component mixture; KL must improve
	// substantially over the initial guess.
	x, err := gen.PoissonN(gen.PoissonNParams{
		Dims: []int{40, 40, 40}, Events: 8000, Components: 4, Spread: 0.3,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompose(x, Options{Rank: 4, MaxIters: 60, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KL) < 2 {
		t.Fatal("too few sweeps")
	}
	first, last := res.KL[0], res.FinalKL()
	if !(last < first) {
		t.Fatalf("KL did not improve: %v -> %v", first, last)
	}
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("non-finite objective %v", last)
	}
}

func TestObjectiveMatchesBruteForce(t *testing.T) {
	// The collapsed Σ m_full term must equal the dense enumeration.
	rng := rand.New(rand.NewSource(14))
	dims := []int{5, 4, 3}
	var f [3]*la.Matrix
	for n := 0; n < 3; n++ {
		f[n] = la.NewMatrix(dims[n], 2)
		for i := range f[n].Data {
			f[n].Data[i] = rng.Float64() + 0.1
		}
	}
	x := nmode.NewTensor(dims, 0)
	x.Append([]nmode.Index{1, 2, 0}, 3)
	x.Append([]nmode.Index{4, 0, 2}, 1)

	got := Objective(x, f)
	var want float64
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var m float64
				for q := 0; q < 2; q++ {
					m += f[0].At(i, q) * f[1].At(j, q) * f[2].At(k, q)
				}
				want += m
			}
		}
	}
	for p := 0; p < x.NNZ(); p++ {
		var m float64
		for q := 0; q < 2; q++ {
			m += f[0].At(int(x.Idx[0][p]), q) * f[1].At(int(x.Idx[1][p]), q) * f[2].At(int(x.Idx[2][p]), q)
		}
		want -= x.Val[p] * math.Log(m)
	}
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("Objective = %v, brute force = %v", got, want)
	}
}

func TestFinalKLBeforeRun(t *testing.T) {
	r := &Result{}
	if !math.IsInf(r.FinalKL(), 1) {
		t.Fatal("FinalKL before any sweep should be +Inf")
	}
}
