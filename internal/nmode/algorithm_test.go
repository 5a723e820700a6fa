package nmode

import (
	"math/rand"
	"testing"

	"spblock/internal/la"
	"spblock/internal/sched"
)

// TestAccumulatorBodyBitIdentical pins Algorithm 1's accumulator array
// to the register walk bit for bit: every output element sees the same
// multiplies and adds in the same order, only the memory traffic
// differs. Orders 3 and 4, unblocked and blocked, with and without
// rank strips, sequential and parallel.
func TestAccumulatorBodyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][]int{{13, 11, 9}, {9, 8, 7, 6}} {
		x := randTensorN(rng, dims, 500)
		grid := make([]int, len(dims))
		for m := range grid {
			grid[m] = 2 + m%2
		}
		for _, rank := range []int{5, 19, 64} {
			factors := make([]*la.Matrix, len(dims))
			for m := range factors {
				factors[m] = randMatrix(rng, dims[m], rank)
			}
			for mode := range dims {
				for _, opts := range []Options{
					{Workers: 1},
					{Workers: 2, Sched: sched.PolicySteal},
					{Grid: grid, Workers: 2},
					{RankBlockCols: 16, Workers: 1},
					{Grid: grid, RankBlockCols: 8, Workers: 2},
				} {
					want := runOpts(t, x, mode, opts, factors)
					opts.Algorithm = AlgAccumulator
					if d := runOpts(t, x, mode, opts, factors).MaxAbsDiff(want); d != 0 {
						t.Errorf("order %d rank %d mode %d %+v: accumulator body differs by %v",
							len(dims), rank, mode, opts, d)
					}
				}
			}
		}
	}
}

// TestCOOMatchesOracle checks the coordinate kernel against the dense
// oracle at orders 3 and 4 for every mode and worker count, and that
// repeated runs of one executor are bit-identical (the private outputs
// are reduced in a fixed worker order).
func TestCOOMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const rank = 19
	for _, dims := range [][]int{{4, 30, 20}, {5, 9, 8, 7}} {
		x := randTensorN(rng, dims, 600)
		factors := make([]*la.Matrix, len(dims))
		for m := range factors {
			factors[m] = randMatrix(rng, dims[m], rank)
		}
		for mode := range dims {
			want := denseMTTKRP(x, factors, mode, rank)
			for _, workers := range []int{1, 2, 3, 8} {
				e, err := NewExecutor(x, mode, Options{Algorithm: AlgCOO, Workers: workers, Sched: sched.PolicySteal})
				if err != nil {
					t.Fatal(err)
				}
				if workers > 1 && e.Sched() != sched.StaticName {
					t.Fatalf("COO resolved sched %q, want static", e.Sched())
				}
				first := la.NewMatrix(dims[mode], rank)
				if err := e.Run(factors, first); err != nil {
					t.Fatal(err)
				}
				if d := first.MaxAbsDiff(want); d > 1e-9 {
					t.Errorf("order %d mode %d workers %d: differs from oracle by %v", len(dims), mode, workers, d)
				}
				again := la.NewMatrix(dims[mode], rank)
				for rep := 0; rep < 2; rep++ {
					if err := e.Run(factors, again); err != nil {
						t.Fatal(err)
					}
				}
				if d := again.MaxAbsDiff(first); d != 0 {
					t.Errorf("order %d mode %d workers %d: repeated runs differ by %v", len(dims), mode, workers, d)
				}
			}
		}
	}
}

// TestCOOAliasesTensor: an AlgCOO executor reads the caller's tensor,
// so values rewritten in place are seen by the next run, and its
// footprint is the coordinates and values it aliases.
func TestCOOAliasesTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dims := []int{6, 5, 4, 3}
	x := randTensorN(rng, dims, 80)
	const rank = 4
	factors := make([]*la.Matrix, len(dims))
	for m := range factors {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	e, err := NewExecutor(x, 2, Options{Algorithm: AlgCOO, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.MemoryBytes(), int64(x.NNZ()*(4*len(dims)+8)); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	for p := range x.Val {
		x.Val[p] = float64(p + 1)
	}
	got := la.NewMatrix(dims[2], rank)
	if err := e.Run(factors, got); err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(denseMTTKRP(x, factors, 2, rank)); d > 1e-9 {
		t.Fatalf("rewritten values not seen: differs by %v", d)
	}
	c, err := Build(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := MTTKRP(c, factors, la.NewMatrix(dims[0], rank), Options{Algorithm: AlgCOO}); err == nil {
		t.Fatal("one-shot tree product accepted AlgCOO")
	}
}

func runOpts(t *testing.T, x *Tensor, mode int, opts Options, factors []*la.Matrix) *la.Matrix {
	t.Helper()
	e, err := NewExecutor(x, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := la.NewMatrix(x.Dims[mode], factors[0].Cols)
	if err := e.Run(factors, out); err != nil {
		t.Fatal(err)
	}
	return out
}
