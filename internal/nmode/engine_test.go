package nmode

import (
	"math/rand"
	"testing"

	"spblock/internal/la"
	"spblock/internal/sched"
)

// nOptionRows enumerates the N-mode configuration lattice: unblocked,
// rank strips, an MB grid, and the combination — sequential and
// parallel.
func nOptionRows(order int) []Options {
	grid := make([]int, order)
	for m := range grid {
		grid[m] = 1 + m%2 // {1,2,1,2,...}: asymmetric on purpose
	}
	grid[0] = 2
	return []Options{
		{Workers: 1},
		{Workers: 3},
		{RankBlockCols: 16, Workers: 1},
		{Grid: grid, Workers: 2},
		{Grid: grid, RankBlockCols: 16, Workers: 2},
	}
}

// checkEngineModes runs every mode of an engine per configuration row
// twice (the second call exercises workspace reuse) and compares each
// product with the dense oracle.
func checkEngineModes(t *testing.T, x *Tensor, rank int, rng *rand.Rand) {
	t.Helper()
	factors := make([]*la.Matrix, x.Order())
	for m := range factors {
		factors[m] = randMatrix(rng, x.Dims[m], rank)
	}
	for _, opts := range nOptionRows(x.Order()) {
		eng, err := NewEngine(x, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for mode := range x.Dims {
			want := denseMTTKRP(x, factors, mode, rank)
			got := la.NewMatrix(x.Dims[mode], rank)
			for rep := 0; rep < 2; rep++ {
				if err := eng.Run(mode, factors, got); err != nil {
					t.Fatalf("%+v mode %d: %v", opts, mode, err)
				}
			}
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("order %d %+v mode %d: differs from oracle by %v", x.Order(), opts, mode, d)
			}
		}
	}
}

// TestCrossOrderEquivalence pins the third-order products of the
// engine to the dense oracle for every configuration row and every
// mode: the generalised CSF kernels produce the numbers the paper's
// third-order kernels produce.
func TestCrossOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checkEngineModes(t, randTensorN(rng, []int{13, 11, 9}, 300), 33, rng) // rank off the register-block width to hit tail paths
}

// TestEngineHigherOrder pins the order-4 engine against the dense
// oracle.
func TestEngineHigherOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checkEngineModes(t, randTensorN(rng, []int{9, 8, 7, 6}, 400), 21, rng)
}

// TestEngineValidation covers construction and Run errors.
func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nt := randTensorN(rng, []int{6, 5, 4}, 40)
	if _, err := NewEngine(nt, Options{}, 3); err == nil {
		t.Error("mode 3 accepted")
	}
	if _, err := NewEngine(nt, Options{Grid: []int{2, 2}}); err == nil {
		t.Error("short grid accepted")
	}
	bad := NewTensor([]int{2, 2, 2}, 1)
	bad.Append([]Index{7, 0, 0}, 1)
	if _, err := NewEngine(bad, Options{}); err == nil {
		t.Error("invalid tensor accepted")
	}
	if _, err := NewEngine(NewTensor([]int{4}, 0), Options{}); err == nil {
		t.Error("order-1 tensor accepted")
	}
	eng, err := NewEngine(nt, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Order() != 3 || len(eng.Dims()) != 3 {
		t.Fatalf("accessors: order=%d dims=%v", eng.Order(), eng.Dims())
	}
	factors := []*la.Matrix{randMatrix(rng, 6, 8), nil, randMatrix(rng, 4, 8)}
	if err := eng.Run(1, factors, la.NewMatrix(5, 8)); err != nil {
		t.Errorf("requested mode rejected: %v", err)
	}
	if err := eng.Run(0, factors, la.NewMatrix(6, 8)); err == nil {
		t.Error("unrequested mode accepted")
	}
	if _, err := eng.Metrics(0); err == nil {
		t.Error("unbuilt mode's metrics returned")
	}
	if err := eng.Run(5, factors, la.NewMatrix(6, 8)); err == nil {
		t.Error("out-of-range mode accepted")
	}
	if err := eng.Run(1, factors[:2], la.NewMatrix(5, 8)); err == nil {
		t.Error("short factor list accepted")
	}
}

// TestEngineSchedPropagation pins Options.Sched through the engine at
// orders 3 and 4: the engine reports the resolved scheduler identity
// per mode.
func TestEngineSchedPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nt3 := randTensorN(rng, []int{24, 20, 16}, 1500)
	nt4 := randTensorN(rng, []int{12, 10, 8, 6}, 1200)
	for _, nt := range []*Tensor{nt3, nt4} {
		eng, err := NewEngine(nt, Options{Workers: 4, Sched: sched.PolicySteal})
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
	eng, err := NewEngine(nt3, Options{Workers: 4, Sched: sched.PolicyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.Sched(0); got != sched.AdaptiveStaticName {
		t.Errorf("adaptive engine reports %q, want %q", got, sched.AdaptiveStaticName)
	}
	// An invalid policy is rejected at construction at every order.
	for _, nt := range []*Tensor{nt3, nt4} {
		if _, err := NewEngine(nt, Options{Sched: sched.Policy(9)}); err == nil {
			t.Errorf("order-%d engine accepted an invalid sched policy", nt.Order())
		}
	}
}
