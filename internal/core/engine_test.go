package core_test

import (
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/nmode"
)

// enginePlans enumerates every Method through NewEngine, at 1 and 2
// workers; the grid is
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
			p.Workers = workers
			plans = append(plans, p)
		}
	}
	return plans
}

// modeRef is the dense oracle's view of mode n's product: the mode-1
// product of the tensor permuted so mode n leads, with the remaining
// modes' factors as B and C in ascending mode order.
func modeRef(t *testing.T, x *nmode.Tensor, n int, factors []*la.Matrix) *la.Matrix {
	t.Helper()
	rest := [3][2]int{{1, 2}, {0, 2}, {0, 1}}[n]
	pt, err := x.Permute([]int{n, rest[0], rest[1]})
	if err != nil {
		t.Fatal(err)
	}
	want := la.NewMatrix(x.Dims[n], factors[rest[0]].Cols)
	if err := core.Reference(pt, factors[rest[0]], factors[rest[1]], want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCrossModeEquivalenceMatrix checks every Method × {1,2} workers ×
// every mode: the engine's mode-n product must agree
// with the dense reference oracle run on an explicitly permuted copy of
// the tensor.
func TestCrossModeEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{13, 11, 9}
	x := core.RandCOO(rng, dims, 300)
	const rank = 33 // off the register-block width to hit tail paths
	factors := []*la.Matrix{
		core.RandMatrix(rng, dims[0], rank),
		core.RandMatrix(rng, dims[1], rank),
		core.RandMatrix(rng, dims[2], rank),
	}
	var want [3]*la.Matrix
	for n := 0; n < 3; n++ {
		want[n] = modeRef(t, x, n, factors)
	}
	for _, plan := range enginePlans() {
		eng, err := core.NewEngine(x, plan)
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

// TestEngineOrder3BitIdenticalToCore pins every core.Plan method to the
// default register walk of nmode.NewEngine bit for bit, at every mode,
// worker count and scheduler. RankB and MB+RankB translate to that walk
// directly. SPLATT and MB run Algorithm 1's accumulator array instead,
// which performs the same operations on every output element in the
// same order, so it must not move a bit either.
func TestEngineOrder3BitIdenticalToCore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := []int{13, 11, 9}
	x := core.RandCOO(rng, dims, 300)
	nt := x
	methods := []struct {
		method core.Method
		grid   []int
		bs     int
	}{
		{core.MethodSPLATT, nil, 0},
		{core.MethodRankB, nil, 16},
		{core.MethodMB, []int{2, 3, 2}, 0},
		{core.MethodMBRankB, []int{2, 3, 2}, 16},
	}
	for _, rank := range []int{5, 33, 64} {
		factors := make([]*la.Matrix, 3)
		for m := range factors {
			factors[m] = core.RandMatrix(rng, dims[m], rank)
		}
		for _, mt := range methods {
			for _, workers := range []int{1, 2} {
				plan := core.Plan{Method: mt.method, Grid: [3]int{1, 1, 1}, RankBlockCols: mt.bs, Workers: workers}
				if mt.grid != nil {
					plan.Grid = [3]int{mt.grid[0], mt.grid[1], mt.grid[2]}
				}
				ref, err := core.NewEngine(x, plan)
				if err != nil {
					t.Fatalf("%v: %v", plan, err)
				}
				eng, err := nmode.NewEngine(nt, nmode.Options{Grid: mt.grid, RankBlockCols: mt.bs, Workers: workers})
				if err != nil {
					t.Fatalf("%v: %v", plan, err)
				}
				for n := 0; n < 3; n++ {
					want := la.NewMatrix(dims[n], rank)
					got := la.NewMatrix(dims[n], rank)
					if err := ref.Run(n, factors, want); err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(n, factors, got); err != nil {
						t.Fatal(err)
					}
					if d := got.MaxAbsDiff(want); d != 0 {
						t.Errorf("%v rank %d mode %d: plan differs from the register walk by %v", plan, rank, n, d)
					}
				}
			}
		}
	}
}

func TestModeSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := core.RandCOO(rng, []int{6, 5, 4}, 50)
	eng, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT}, 2)
	if err != nil {
		t.Fatal(err)
	}
	factors := []*la.Matrix{
		core.RandMatrix(rng, 6, 8), core.RandMatrix(rng, 5, 8), core.RandMatrix(rng, 4, 8),
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

func TestNewEngineErrors(t *testing.T) {
	x := nmode.NewTensor([]int{2, 2, 2}, 0)
	if _, err := core.NewEngine(x, core.Plan{}, 3); err == nil {
		t.Fatal("expected error for mode 3")
	}
	if _, err := core.NewEngine(x, core.Plan{Workers: -1}); err == nil {
		t.Fatal("expected error for negative workers")
	}
	bad := nmode.NewTensor([]int{0, 1, 1}, 0)
	if _, err := core.NewEngine(bad, core.Plan{}); err == nil {
		t.Fatal("expected error for invalid tensor")
	}
	ragged := nmode.NewTensor([]int{2, 2, 2}, 1)
	ragged.Append([]nmode.Index{1, 1, 1}, 1)
	ragged.Idx[2] = ragged.Idx[2][:0]
	if _, err := core.NewEngine(ragged, core.Plan{}); err == nil {
		t.Fatal("expected error for ragged coordinates")
	}
}

// TestSharedValueStorage is the contract cpapr depends on: with
// MethodCOO, rewriting the input tensor's values between Runs is
// visible to every mode's executor, because the COO executors alias
// the value array.
func TestSharedValueStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dims := []int{5, 4, 3}
	x := core.RandCOO(rng, dims, 30)
	eng, err := core.NewEngine(x, core.Plan{Method: core.MethodCOO})
	if err != nil {
		t.Fatal(err)
	}
	const rank = 4
	factors := []*la.Matrix{
		core.RandMatrix(rng, dims[0], rank),
		core.RandMatrix(rng, dims[1], rank),
		core.RandMatrix(rng, dims[2], rank),
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
