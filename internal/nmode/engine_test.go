package nmode

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spblock/internal/la"
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

// TestEngineSchedPropagation pins Options.Workers through the engine
// to every mode's scheduler at orders 3 and 4: each mode's executor
// runs a 4-worker pool, with one metrics bucket per worker, and the
// engine rejects an out-of-range mode.
func TestEngineSchedPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nt3 := randTensorN(rng, []int{24, 20, 16}, 1500)
	nt4 := randTensorN(rng, []int{12, 10, 8, 6}, 1200)
	for _, nt := range []*Tensor{nt3, nt4} {
		eng, err := NewEngine(nt, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for mode := 0; mode < nt.Order(); mode++ {
			met, err := eng.Metrics(mode)
			if err != nil {
				t.Fatal(err)
			}
			if met.Workers() != 4 {
				t.Errorf("order-%d mode %d: %d worker buckets, want 4", nt.Order(), mode, met.Workers())
			}
		}
		if _, err := eng.Metrics(nt.Order()); err == nil {
			t.Error("out-of-range mode accepted")
		}
	}
}

// TestEngineConcurrentBuildIdentical pins the concurrent per-mode
// build to the sequential one: at 2, 3 and 8 builders, for SPLATT, an
// MB grid, rank strips and COO at orders 3 and 4, over all modes, a
// subset and a repeated mode, the engine holds the same trees, reports
// the same MemoryBytes, and every built mode's MTTKRP has the same
// bits as the 1-worker build's, both run at one worker. A grid of the
// wrong length fails with the sequential build's error.
func TestEngineConcurrentBuildIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const rank = 19
	for _, x := range []*Tensor{
		randTensorN(rng, []int{40, 30, 20}, 3000),
		randTensorN(rng, []int{14, 12, 10, 8}, 3000),
	} {
		n := x.Order()
		grid := make([]int, n)
		for m := range grid {
			grid[m] = 2 + m%2
		}
		factors := make([]*la.Matrix, n)
		for m := range factors {
			factors[m] = randMatrix(rng, x.Dims[m], rank)
		}
		plans := map[string]Options{
			"splatt": {},
			"mb":     {Grid: grid},
			"rankb":  {RankBlockCols: 16},
			"coo":    {Algorithm: AlgCOO},
		}
		for name, opts := range plans {
			for _, modes := range [][]int{nil, {n - 1, 0}, {1, 1, 0}} {
				opts.Workers = 1
				want, err := NewEngine(x, opts, modes...)
				if err != nil {
					t.Fatalf("order %d %s modes %v: %v", n, name, modes, err)
				}
				for _, workers := range []int{2, 3, 8} {
					opts.Workers = workers
					got, err := NewEngine(x, opts, modes...)
					if err != nil {
						t.Fatalf("order %d %s modes %v workers %d: %v", n, name, modes, workers, err)
					}
					if err := got.SetWorkers(1); err != nil {
						t.Fatal(err)
					}
					if err := sameEngine(got, want, factors, rank); err != nil {
						t.Fatalf("order %d %s modes %v: %d-worker build: %v", n, name, modes, workers, err)
					}
				}
			}
		}
		short := Options{Grid: grid[:n-1], Workers: 1}
		_, want := NewEngine(x, short)
		for _, workers := range []int{2, 3, 8} {
			short.Workers = workers
			if _, err := NewEngine(x, short); err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("order %d short grid at %d workers: error %v, sequential build %v", n, workers, err, want)
			}
		}
	}
}

// sameEngine reports how got differs from want: the modes built, the
// trees, MemoryBytes, or the bits of any built mode's MTTKRP.
func sameEngine(got, want *Engine, factors []*la.Matrix, rank int) error {
	if g, w := got.MemoryBytes(), want.MemoryBytes(); g != w {
		return fmt.Errorf("MemoryBytes %d, want %d", g, w)
	}
	for m, wx := range want.execs {
		gx := got.execs[m]
		if (gx == nil) != (wx == nil) {
			return fmt.Errorf("mode %d built %v, want %v", m, gx != nil, wx != nil)
		}
		if wx == nil {
			continue
		}
		if !reflect.DeepEqual(gx.csf, wx.csf) || !reflect.DeepEqual(gx.blocked, wx.blocked) || gx.coo != wx.coo {
			return fmt.Errorf("mode %d: built structures differ", m)
		}
		g, w := la.NewMatrix(want.dims[m], rank), la.NewMatrix(want.dims[m], rank)
		if err := got.Run(m, factors, g); err != nil {
			return err
		}
		if err := want.Run(m, factors, w); err != nil {
			return err
		}
		for i, v := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(v) {
				return fmt.Errorf("mode %d MTTKRP entry %d = %v, want %v", m, i, g.Data[i], v)
			}
		}
	}
	return nil
}
