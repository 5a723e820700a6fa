package dist

import (
	"math"
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/cpd"
	"spblock/internal/la"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// plantedTensor builds a dense exactly-rank-r tensor.
func plantedTensor(seed int64, dims tensor.Dims, r int) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	var f [3]*la.Matrix
	for n := 0; n < 3; n++ {
		f[n] = la.NewMatrix(dims[n], r)
		for i := range f[n].Data {
			f[n].Data[i] = rng.Float64() + 0.1
		}
	}
	t := tensor.NewCOO(dims, dims[0]*dims[1]*dims[2])
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var s float64
				for q := 0; q < r; q++ {
					s += f[0].At(i, q) * f[1].At(j, q) * f[2].At(k, q)
				}
				t.Append(tensor.Index(i), tensor.Index(j), tensor.Index(k), s)
			}
		}
	}
	return t
}

func TestDistCPALSValidation(t *testing.T) {
	x := plantedTensor(1, tensor.Dims{4, 4, 4}, 1)
	cfg := Config{Ranks: 2, Model: mpi.Zero(), Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}}
	if _, err := CPALS(x, cfg, CPOptions{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	bad := tensor.NewCOO(tensor.Dims{2, 2, 2}, 0)
	bad.Append(5, 0, 0, 1)
	if _, err := CPALS(bad, cfg, CPOptions{Rank: 2}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
	// Rank not divisible by RankParts fails at engine construction.
	cfg4 := cfg
	cfg4.Ranks = 4
	cfg4.RankParts = 2
	if _, err := CPALS(x, cfg4, CPOptions{Rank: 3}); err == nil {
		t.Fatal("indivisible rank accepted with 4D partitioning")
	}
}

func TestDistCPALSMatchesSharedMemoryTrajectory(t *testing.T) {
	// Same seed, same data: the distributed decomposition must follow
	// the shared-memory decomposition's fit trajectory (the MTTKRP
	// results agree to float round-off, and everything downstream is
	// identical arithmetic).
	x := plantedTensor(2, tensor.Dims{10, 9, 8}, 3)
	const rank = 4
	const iters = 8

	shared, err := cpd.CPALS(tensor.ToNMode(x), cpd.Options{Rank: rank, MaxIters: iters, Tol: 1e-14, Seed: 6,
		Kernel: nmode.Options{Algorithm: nmode.AlgCOO}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"3D p=4", Config{Ranks: 4, Model: mpi.Zero(), Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}}},
		{"4D p=4 t=2", Config{Ranks: 4, RankParts: 2, Model: mpi.Zero(), Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}}},
		{"3D blocked", Config{Ranks: 2, Model: mpi.DefaultCluster(), Plan: core.Plan{Method: core.MethodMBRankB, Grid: [3]int{1, 2, 1}, RankBlockCols: 16, Workers: 1}}},
	} {
		res, err := CPALS(x, tc.cfg, CPOptions{Rank: rank, MaxIters: iters, Tol: 1e-14, Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Fits) != len(shared.Fits) {
			t.Fatalf("%s: %d sweeps vs shared %d", tc.name, len(res.Fits), len(shared.Fits))
		}
		for i := range res.Fits {
			if math.Abs(res.Fits[i]-shared.Fits[i]) > 1e-8 {
				t.Fatalf("%s: sweep %d fit %v vs shared %v", tc.name, i, res.Fits[i], shared.Fits[i])
			}
		}
	}
}

func TestDistCPALSAccountsCosts(t *testing.T) {
	x := plantedTensor(3, tensor.Dims{8, 8, 8}, 2)
	cfg := Config{Ranks: 4, Model: mpi.DefaultCluster(), Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}}
	res, err := CPALS(x, cfg, CPOptions{Rank: 2, MaxIters: 4, Tol: 1e-14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeledSeconds <= 0 {
		t.Fatal("no modeled time accumulated")
	}
	if res.CommBytes <= 0 {
		t.Fatal("no communication accounted")
	}
	if res.Iters == 0 || res.Fit() <= 0 {
		t.Fatalf("decomposition did not progress: %+v", res)
	}
}

func TestDistCPALSConverges(t *testing.T) {
	x := plantedTensor(4, tensor.Dims{6, 6, 6}, 2)
	cfg := Config{Ranks: 2, Model: mpi.Zero(), Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}}
	res, err := CPALS(x, cfg, CPOptions{Rank: 2, MaxIters: 400, Tol: 1e-7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge (fit %v after %d sweeps)", res.Fit(), res.Iters)
	}
	if res.Fit() < 0.95 {
		t.Fatalf("fit = %v", res.Fit())
	}
}

func TestEngineReuse(t *testing.T) {
	// Run must be repeatable and rank-checked.
	rng := rand.New(rand.NewSource(5))
	x := randCOO(rng, tensor.Dims{12, 12, 12}, 300)
	eng, err := NewEngine(x, 8, Config{Ranks: 4, Model: mpi.Zero(),
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b := randMatrix(rng, 12, 8)
	c := randMatrix(rng, 12, 8)
	r1, err := eng.Run(b, c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(b, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := r1.Out.MaxAbsDiff(r2.Out); d != 0 {
		t.Fatalf("engine runs differ by %v", d)
	}
	if _, err := eng.Run(randMatrix(rng, 12, 4), c); err == nil {
		t.Fatal("wrong-rank factors accepted")
	}
	if _, err := eng.Run(randMatrix(rng, 5, 8), c); err == nil {
		t.Fatal("wrong-shape factors accepted")
	}
	if _, err := NewEngine(x, 0, Config{Ranks: 2}); err == nil {
		t.Fatal("rank 0 engine accepted")
	}
}

// TestPermuteViewIsZeroCopy: each mode's permuted view leads with the
// mode and shares the tensor's coordinate and value storage.
func TestPermuteViewIsZeroCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randCOO(rng, tensor.Dims{5, 6, 7}, 40)
	coords := [3][]tensor.Index{x.I, x.J, x.K}
	for n, perm := range modePerms {
		v := permuteView(x, perm)
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		if perm[0] != n || perm[1] >= perm[2] {
			t.Fatalf("mode %d: permutation %v does not lead with the mode", n, perm)
		}
		for m, c := range [3][]tensor.Index{v.I, v.J, v.K} {
			if v.Dims[m] != x.Dims[perm[m]] || &c[0] != &coords[perm[m]][0] {
				t.Fatalf("mode %d: view mode %d does not alias tensor mode %d", n, m, perm[m])
			}
		}
		if &v.Val[0] != &x.Val[0] {
			t.Fatalf("mode %d: values were copied, not aliased", n)
		}
	}
}
