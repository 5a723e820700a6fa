package dist

import (
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func randCOO(rng *rand.Rand, dims []int, nnz int) *nmode.Tensor {
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.NormFloat64())
	}
	tensor.Dedup(t)
	return t
}

func randMatrix(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func sharedMemoryReference(t *testing.T, x *nmode.Tensor, b, c *la.Matrix) *la.Matrix {
	t.Helper()
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := la.NewMatrix(x.Dims[0], b.Cols)
	if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDistributedMatchesSharedMemory3D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{40, 30, 20}
	x := randCOO(rng, dims, 1500)
	rank := 16
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)
	want := sharedMemoryReference(t, x, b, c)

	for _, p := range []int{1, 2, 4, 8} {
		res, err := MTTKRP(x, b, c, Config{
			Ranks: p,
			Plan:  core.Plan{Method: core.MethodSPLATT, Workers: 1},
			Model: mpi.Zero(),
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if d := res.Out.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("p=%d: distributed result differs by %v", p, d)
		}
		if res.Grid.RankParts != 1 {
			t.Fatalf("p=%d: unexpected rank parts %d", p, res.Grid.RankParts)
		}
	}
}

func TestDistributedMatchesSharedMemory4D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []int{24, 32, 16}
	x := randCOO(rng, dims, 1200)
	rank := 32
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)
	want := sharedMemoryReference(t, x, b, c)

	for _, tc := range []struct{ p, t int }{{2, 2}, {4, 2}, {8, 4}, {8, 8}} {
		res, err := MTTKRP(x, b, c, Config{
			Ranks:     tc.p,
			RankParts: tc.t,
			Plan:      core.Plan{Method: core.MethodSPLATT, Workers: 1},
			Model:     mpi.Zero(),
		})
		if err != nil {
			t.Fatalf("p=%d t=%d: %v", tc.p, tc.t, err)
		}
		if d := res.Out.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("p=%d t=%d: differs by %v", tc.p, tc.t, d)
		}
		if res.Grid.RankParts != tc.t {
			t.Fatalf("rank parts = %d, want %d", res.Grid.RankParts, tc.t)
		}
	}
}

func TestDistributedWithBlockedLocalKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{30, 40, 30}
	x := randCOO(rng, dims, 2000)
	rank := 32
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)
	want := sharedMemoryReference(t, x, b, c)

	res, err := MTTKRP(x, b, c, Config{
		Ranks:     4,
		RankParts: 2,
		Plan:      core.Plan{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16, Workers: 1},
		Model:     mpi.DefaultCluster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Out.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("blocked local kernel differs by %v", d)
	}
	if res.ModeledSeconds <= 0 {
		t.Fatal("no modeled time")
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := []int{8, 8, 8}
	x := randCOO(rng, dims, 50)
	b := randMatrix(rng, 8, 16)
	c := randMatrix(rng, 8, 16)
	if _, err := MTTKRP(x, b, randMatrix(rng, 8, 8), Config{Ranks: 2}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := MTTKRP(x, randMatrix(rng, 5, 16), c, Config{Ranks: 2}); err == nil {
		t.Fatal("B shape mismatch accepted")
	}
	if _, err := MTTKRP(x, b, c, Config{Ranks: 3, RankParts: 2}); err == nil {
		t.Fatal("t not dividing p accepted")
	}
	if _, err := MTTKRP(x, b, c, Config{Ranks: 4, RankParts: 3}); err == nil {
		t.Fatal("rank not divisible by t accepted")
	}
	bad := nmode.NewTensor(dims, 0)
	bad.Append([]nmode.Index{20, 0, 0}, 1)
	if _, err := MTTKRP(bad, b, c, Config{Ranks: 2}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestLoadBalanceReported(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randCOO(rng, []int{64, 64, 64}, 4000)
	b := randMatrix(rng, 64, 16)
	c := randMatrix(rng, 64, 16)
	res, err := MTTKRP(x, b, c, Config{Ranks: 8, Model: mpi.Zero(),
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRankNNZ <= 0 || res.MinRankNNZ < 0 || res.MinRankNNZ > res.MaxRankNNZ {
		t.Fatalf("load stats broken: min=%d max=%d", res.MinRankNNZ, res.MaxRankNNZ)
	}
	// Greedy medium-grained chunks should keep imbalance moderate on a
	// uniform random tensor.
	if res.MaxRankNNZ > 4*(x.NNZ()/8+1) {
		t.Fatalf("severe imbalance: max=%d nnz/p=%d", res.MaxRankNNZ, x.NNZ()/8)
	}
}

func TestFourDReducesCommBytes(t *testing.T) {
	// The 4D scheme's point: each group gathers only R/t columns, so
	// per-iteration communication volume drops relative to 3D at the
	// same total rank count (at the cost of replicating the tensor).
	rng := rand.New(rand.NewSource(6))
	dims := []int{64, 512, 64}
	x := randCOO(rng, dims, 3000)
	rank := 64
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)

	res3D, err := MTTKRP(x, b, c, Config{Ranks: 16, Model: mpi.Zero(),
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res4D, err := MTTKRP(x, b, c, Config{Ranks: 16, RankParts: 4, Model: mpi.Zero(),
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res4D.Stats.TotalBytes() >= res3D.Stats.TotalBytes() {
		t.Fatalf("4D bytes %d not below 3D bytes %d",
			res4D.Stats.TotalBytes(), res3D.Stats.TotalBytes())
	}
	t.Logf("comm bytes: 3D=%d 4D=%d", res3D.Stats.TotalBytes(), res4D.Stats.TotalBytes())
}

func TestEmptyBlocksSurvive(t *testing.T) {
	// A tensor whose nonzeros all sit in one corner leaves most blocks
	// empty; the exchange must still complete and verify.
	x := nmode.NewTensor([]int{32, 32, 32}, 0)
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < 100; p++ {
		x.Append([]nmode.Index{nmode.Index(rng.Intn(4)), nmode.Index(rng.Intn(4)), nmode.Index(rng.Intn(4))}, 1)
	}
	tensor.Dedup(x)
	b := randMatrix(rng, 32, 16)
	c := randMatrix(rng, 32, 16)
	want := sharedMemoryReference(t, x, b, c)
	res, err := MTTKRP(x, b, c, Config{Ranks: 8, Model: mpi.Zero(),
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Out.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("corner tensor differs by %v", d)
	}
}
