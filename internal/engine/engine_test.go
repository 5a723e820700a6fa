package engine

import (
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/sched"
	"spblock/internal/tensor"
)

func randMatrix(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randCOO(rng *rand.Rand, dims tensor.Dims, nnz int) *tensor.COO {
	t := tensor.NewCOO(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append(
			tensor.Index(rng.Intn(dims[0])),
			tensor.Index(rng.Intn(dims[1])),
			tensor.Index(rng.Intn(dims[2])),
			rng.NormFloat64(),
		)
	}
	t.Dedup()
	return t
}

// enginePlans enumerates every Method through the face, at 1 and 2
// workers under the static and stealing schedulers; the grid is
// deliberately asymmetric so every mode's product sees a different
// block shape.
func enginePlans() []core.Plan {
	var plans []core.Plan
	for _, p := range []core.Plan{
		{Method: core.MethodCOO},
		{Method: core.MethodSPLATT},
		{Method: core.MethodRankB, RankBlockCols: 16},
		{Method: core.MethodMB, Grid: [3]int{4, 2, 1}},
		{Method: core.MethodMBRankB, Grid: [3]int{2, 3, 2}, RankBlockCols: 16},
	} {
		for _, workers := range []int{1, 2} {
			for _, pol := range []sched.Policy{sched.PolicyStatic, sched.PolicySteal} {
				p.Workers, p.Sched = workers, pol
				plans = append(plans, p)
			}
		}
	}
	return plans
}

// modeRef is the dense oracle's view of mode n's product: the mode-1
// product of the tensor permuted so mode n leads, with the remaining
// modes' factors as B and C in ascending mode order.
func modeRef(t *testing.T, x *tensor.COO, n int, factors [3]*la.Matrix) *la.Matrix {
	t.Helper()
	rest := [3][2]int{{1, 2}, {0, 2}, {0, 1}}[n]
	pt, err := x.PermuteModes([3]int{n, rest[0], rest[1]})
	if err != nil {
		t.Fatal(err)
	}
	want := la.NewMatrix(x.Dims[n], factors[0].Cols)
	if err := core.Reference(pt, factors[rest[0]], factors[rest[1]], want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCrossModeEquivalenceMatrix checks every Method × {1,2} workers ×
// {static, steal} × every mode: the face's mode-n product must agree
// with the dense reference oracle run on an explicitly permuted copy of
// the tensor.
func TestCrossModeEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := tensor.Dims{13, 11, 9}
	x := randCOO(rng, dims, 300)
	const rank = 33 // off the register-block width to hit tail paths
	factors := [3]*la.Matrix{
		randMatrix(rng, dims[0], rank),
		randMatrix(rng, dims[1], rank),
		randMatrix(rng, dims[2], rank),
	}
	var want [3]*la.Matrix
	for n := 0; n < 3; n++ {
		want[n] = modeRef(t, x, n, factors)
	}
	for _, plan := range enginePlans() {
		eng, err := NewMultiModeExecutor(x, plan)
		if err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		for n := 0; n < 3; n++ {
			got := la.NewMatrix(dims[n], rank)
			// Run twice: the second call exercises workspace reuse.
			for rep := 0; rep < 2; rep++ {
				if err := eng.Run(n, factors, got); err != nil {
					t.Fatalf("%v mode %d: %v", plan, n, err)
				}
			}
			if d := got.MaxAbsDiff(want[n]); d > 1e-9 {
				t.Fatalf("%v mode %d: differs from oracle by %v", plan, n, d)
			}
		}
	}
}

func TestModeSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randCOO(rng, tensor.Dims{6, 5, 4}, 50)
	eng, err := NewMultiModeExecutor(x, core.Plan{Method: core.MethodSPLATT}, 2)
	if err != nil {
		t.Fatal(err)
	}
	factors := [3]*la.Matrix{
		randMatrix(rng, 6, 8), randMatrix(rng, 5, 8), randMatrix(rng, 4, 8),
	}
	out := la.NewMatrix(4, 8)
	if err := eng.Run(2, factors, out); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0, factors, la.NewMatrix(6, 8)); err == nil {
		t.Fatal("expected error running a mode that was not requested")
	}
	if _, err := eng.Metrics(1); err == nil {
		t.Fatal("expected error fetching an unbuilt mode's metrics")
	}
	if _, err := eng.Metrics(5); err == nil {
		t.Fatal("expected error for out-of-range mode")
	}
	if err := eng.Run(5, factors, out); err == nil {
		t.Fatal("expected error running an out-of-range mode")
	}
}

func TestNewMultiModeExecutorErrors(t *testing.T) {
	x := tensor.NewCOO(tensor.Dims{2, 2, 2}, 0)
	if _, err := NewMultiModeExecutor(x, core.Plan{}, 3); err == nil {
		t.Fatal("expected error for mode 3")
	}
	if _, err := NewMultiModeExecutor(x, core.Plan{Workers: -1}); err == nil {
		t.Fatal("expected error for negative workers")
	}
	bad := &tensor.COO{Dims: tensor.Dims{0, 1, 1}}
	if _, err := NewMultiModeExecutor(bad, core.Plan{}); err == nil {
		t.Fatal("expected error for invalid tensor")
	}
}

// TestSharedValueStorage is the contract cpapr depends on: with
// MethodCOO, rewriting the input tensor's values between Runs is
// visible to every mode's executor, because the COO executors alias
// the value array.
func TestSharedValueStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dims := tensor.Dims{5, 4, 3}
	x := randCOO(rng, dims, 30)
	eng, err := NewMultiModeExecutor(x, core.Plan{Method: core.MethodCOO})
	if err != nil {
		t.Fatal(err)
	}
	const rank = 4
	factors := [3]*la.Matrix{
		randMatrix(rng, dims[0], rank),
		randMatrix(rng, dims[1], rank),
		randMatrix(rng, dims[2], rank),
	}
	for p := range x.Val {
		x.Val[p] = float64(p + 1)
	}
	for n := 0; n < 3; n++ {
		want := modeRef(t, x, n, factors)
		got := la.NewMatrix(dims[n], rank)
		if err := eng.Run(n, factors, got); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("mode %d after value rewrite: differs by %v", n, d)
		}
	}
}
