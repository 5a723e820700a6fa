package engine

import (
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/sched"
	"spblock/internal/tensor"
)

// nOptionRows enumerates the N-mode configuration lattice: unblocked,
// rank strips, an MB grid, and the combination — sequential and
// parallel.
func nOptionRows(order int) []nmode.Options {
	grid := make([]int, order)
	for m := range grid {
		grid[m] = 1 + m%2 // {1,2,1,2,...}: asymmetric on purpose
	}
	grid[0] = 2
	return []nmode.Options{
		{Workers: 1},
		{Workers: 3},
		{RankBlockCols: 16, Workers: 1},
		{Grid: grid, Workers: 2},
		{Grid: grid, RankBlockCols: 16, Workers: 2},
	}
}

// TestCrossOrderEquivalence is the generic-vs-reference matrix: an
// order-3 tensor pushed through the N-mode executors must agree with
// the order-3 dense reference for every configuration row and every
// mode. This pins the generalised
// CSF kernels to the same numbers the paper's third-order kernels
// produce.
func TestCrossOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dims := tensor.Dims{13, 11, 9}
	x := randCOO(rng, dims, 300)
	nt := tensor.ToNMode(x)
	const rank = 33 // off the register-block width to hit tail paths
	factors := make([]*la.Matrix, 3)
	for m := 0; m < 3; m++ {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	var want [3]*la.Matrix
	for n := 0; n < 3; n++ {
		want[n] = modeRef(t, x, n, [3]*la.Matrix{factors[0], factors[1], factors[2]})
	}
	for _, opts := range nOptionRows(3) {
		eng, err := NewNEngine(nt, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for n := 0; n < 3; n++ {
			got := la.NewMatrix(dims[n], rank)
			// Run twice: the second call exercises workspace reuse.
			for rep := 0; rep < 2; rep++ {
				if err := eng.Run(n, factors, got); err != nil {
					t.Fatalf("%+v mode %d: %v", opts, n, err)
				}
			}
			if d := got.MaxAbsDiff(want[n]); d > 1e-9 {
				t.Fatalf("%+v mode %d: differs from order-3 reference by %v", opts, n, d)
			}
		}
	}
}

// TestNEngineOrder3BitIdenticalToCore pins the face's core.Plan
// methods to the default register walk of NewNEngine bit for bit, at
// every mode, worker count and scheduler. RankB and MB+RankB translate
// to that walk directly. SPLATT and MB run Algorithm 1's accumulator
// array instead, which performs the same operations on every output
// element in the same order, so it must not move a bit either.
func TestNEngineOrder3BitIdenticalToCore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := tensor.Dims{13, 11, 9}
	x := randCOO(rng, dims, 300)
	nt := tensor.ToNMode(x)
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
			factors[m] = randMatrix(rng, dims[m], rank)
		}
		for _, mt := range methods {
			for _, workers := range []int{1, 2} {
				for _, pol := range []sched.Policy{sched.PolicyStatic, sched.PolicySteal} {
					plan := core.Plan{Method: mt.method, Grid: [3]int{1, 1, 1}, RankBlockCols: mt.bs, Workers: workers, Sched: pol}
					if mt.grid != nil {
						plan.Grid = [3]int{mt.grid[0], mt.grid[1], mt.grid[2]}
					}
					ref, err := NewMultiModeExecutor(x, plan)
					if err != nil {
						t.Fatalf("%v: %v", plan, err)
					}
					eng, err := NewNEngine(nt, nmode.Options{Grid: mt.grid, RankBlockCols: mt.bs, Workers: workers, Sched: pol})
					if err != nil {
						t.Fatalf("%v: %v", plan, err)
					}
					for n := 0; n < 3; n++ {
						want := la.NewMatrix(dims[n], rank)
						got := la.NewMatrix(dims[n], rank)
						if err := ref.Run(n, [3]*la.Matrix{factors[0], factors[1], factors[2]}, want); err != nil {
							t.Fatal(err)
						}
						if err := eng.Run(n, factors, got); err != nil {
							t.Fatal(err)
						}
						if d := got.MaxAbsDiff(want); d != 0 {
							t.Errorf("%v rank %d mode %d: face differs from the register walk by %v", plan, rank, n, d)
						}
					}
				}
			}
		}
	}
}

// TestNEngineHigherOrder pins the order-4 engine against the dense
// oracle computed from the raw coordinates.
func TestNEngineHigherOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dims := []int{9, 8, 7, 6}
	nt := nmode.NewTensor(dims, 400)
	coords := make([]nmode.Index, 4)
	for p := 0; p < 400; p++ {
		for m, d := range dims {
			coords[m] = nmode.Index(rng.Intn(d))
		}
		nt.Append(coords, rng.NormFloat64())
	}
	if _, err := nt.Dedup(); err != nil {
		t.Fatal(err)
	}
	const rank = 21
	factors := make([]*la.Matrix, 4)
	for m := range dims {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	// Dense oracle, straight off the COO data.
	var want [4]*la.Matrix
	for mode := range dims {
		want[mode] = la.NewMatrix(dims[mode], rank)
		for p := 0; p < nt.NNZ(); p++ {
			row := want[mode].Row(int(nt.Idx[mode][p]))
			for q := 0; q < rank; q++ {
				v := nt.Val[p]
				for m := range dims {
					if m != mode {
						v *= factors[m].At(int(nt.Idx[m][p]), q)
					}
				}
				row[q] += v
			}
		}
	}
	for _, opts := range nOptionRows(4) {
		eng, err := NewNEngine(nt, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for mode := range dims {
			got := la.NewMatrix(dims[mode], rank)
			for rep := 0; rep < 2; rep++ {
				if err := eng.Run(mode, factors, got); err != nil {
					t.Fatalf("%+v mode %d: %v", opts, mode, err)
				}
			}
			if d := got.MaxAbsDiff(want[mode]); d > 1e-9 {
				t.Fatalf("%+v mode %d: differs from oracle by %v", opts, mode, d)
			}
		}
	}
}

// TestNEngineValidation covers construction and Run errors.
func TestNEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nt := tensor.ToNMode(randCOO(rng, tensor.Dims{6, 5, 4}, 40))
	if _, err := NewNEngine(nt, nmode.Options{}, 3); err == nil {
		t.Error("mode 3 accepted")
	}
	if _, err := NewNEngine(nt, nmode.Options{Grid: []int{2, 2}}); err == nil {
		t.Error("short grid accepted")
	}
	eng, err := NewNEngine(nt, nmode.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Order() != 3 || len(eng.Dims()) != 3 {
		t.Fatalf("accessors: order=%d dims=%v", eng.Order(), eng.Dims())
	}
	factors := []*la.Matrix{nil, nil, randMatrix(rng, 4, 8)}
	factors[0] = randMatrix(rng, 6, 8)
	if err := eng.Run(1, factors, la.NewMatrix(5, 8)); err != nil {
		t.Errorf("requested mode rejected: %v", err)
	}
	if err := eng.Run(0, factors, la.NewMatrix(6, 8)); err == nil {
		t.Error("unrequested mode accepted")
	}
	if err := eng.Run(5, factors, la.NewMatrix(6, 8)); err == nil {
		t.Error("out-of-range mode accepted")
	}
	if err := eng.Run(1, factors[:2], la.NewMatrix(5, 8)); err == nil {
		t.Error("short factor list accepted")
	}
}

// TestNEngineSchedPropagation pins Options.Sched through the engine at
// orders 3 and 4: the engine reports the resolved scheduler identity
// per mode.
func TestNEngineSchedPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nt3 := tensor.ToNMode(randCOO(rng, tensor.Dims{24, 20, 16}, 1500))
	dims4 := []int{12, 10, 8, 6}
	nt4 := nmode.NewTensor(dims4, 1200)
	coords := make([]nmode.Index, 4)
	for p := 0; p < 1200; p++ {
		for m, d := range dims4 {
			coords[m] = nmode.Index(rng.Intn(d))
		}
		nt4.Append(coords, rng.NormFloat64())
	}
	if _, err := nt4.Dedup(); err != nil {
		t.Fatal(err)
	}
	for _, nt := range []*nmode.Tensor{nt3, nt4} {
		eng, err := NewNEngine(nt, nmode.Options{Workers: 4, Sched: sched.PolicySteal})
		if err != nil {
			t.Fatal(err)
		}
		for mode := 0; mode < nt.Order(); mode++ {
			got, err := eng.Sched(mode)
			if err != nil {
				t.Fatal(err)
			}
			if got != sched.StealName {
				t.Errorf("order-%d mode %d: sched %q, want %q", nt.Order(), mode, got, sched.StealName)
			}
		}
		if _, err := eng.Sched(nt.Order()); err == nil {
			t.Error("out-of-range mode accepted")
		}
	}
	// An adaptive engine starts on the static layout.
	eng, err := NewNEngine(nt3, nmode.Options{Workers: 4, Sched: sched.PolicyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.Sched(0); got != sched.AdaptiveStaticName {
		t.Errorf("adaptive engine reports %q, want %q", got, sched.AdaptiveStaticName)
	}
	// An invalid policy is rejected at construction at every order.
	for _, nt := range []*nmode.Tensor{nt3, nt4} {
		if _, err := NewNEngine(nt, nmode.Options{Sched: sched.Policy(9)}); err == nil {
			t.Errorf("order-%d engine accepted an invalid sched policy", nt.Order())
		}
	}
}
