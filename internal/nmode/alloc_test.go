package nmode

import (
	"fmt"
	"math/rand"
	"testing"

	"spblock/internal/la"
	"spblock/internal/sched"
	"spblock/internal/testutil/raceflag"
)

// allocCases is the options matrix for the N-mode executor tests:
// sequential and parallel, unblocked / rank strips / MB grid / both.
func allocCases() []Options {
	return []Options{
		{Workers: 1},
		{Workers: 4},
		{RankBlockCols: 16, Workers: 1},
		{RankBlockCols: 16, Workers: 4},
		// The remaining registered kernel widths plus a below-MinWidth
		// strip (scalar tails): the walker's cached-kernel dispatch must
		// stay allocation-free and correct for every registry entry.
		{RankBlockCols: 8, Workers: 1},
		{RankBlockCols: 24, Workers: 1},
		{RankBlockCols: 32, Workers: 1},
		{RankBlockCols: 4, Workers: 1},
		{Grid: []int{2, 2, 1, 2}, Workers: 1},
		{Grid: []int{2, 2, 1, 2}, Workers: 4},
		{Grid: []int{2, 2, 1, 2}, RankBlockCols: 16, Workers: 1},
		{Grid: []int{2, 2, 1, 2}, RankBlockCols: 16, Workers: 4},
		// Stealing and adaptive scheduling over both the root-range and
		// the block-layer work units hold the same zero-alloc and
		// bit-identity contracts as static (see internal/sched).
		{Workers: 4, Sched: sched.PolicySteal},
		{Workers: 4, Sched: sched.PolicyAdaptive},
		{RankBlockCols: 16, Workers: 4, Sched: sched.PolicySteal},
		{Grid: []int{2, 2, 1, 2}, Workers: 4, Sched: sched.PolicySteal},
		{Grid: []int{2, 2, 1, 2}, RankBlockCols: 16, Workers: 4, Sched: sched.PolicyAdaptive},
		// Algorithm 1's accumulator body and the coordinate kernel hold
		// the same contracts on every walk shape and worker count.
		{Algorithm: AlgAccumulator, Workers: 1},
		{Algorithm: AlgAccumulator, Workers: 4, Sched: sched.PolicySteal},
		{Algorithm: AlgAccumulator, Grid: []int{2, 2, 1, 2}, Workers: 4},
		{Algorithm: AlgCOO, Workers: 1},
		{Algorithm: AlgCOO, Workers: 4},
		{Algorithm: AlgCOO, Workers: 3, Sched: sched.PolicyAdaptive},
	}
}

// TestExecutorSteadyStateAllocations mirrors the order-3 regression
// guard in internal/core: after a warm-up run sizes the pooled
// workspace, repeated Executor.Run calls must not touch the heap at
// all — CP-ALS calls this kernel once per mode per sweep. Orders 2, 3
// and 4 cover each shape of the walk: a root that is itself a fiber,
// roots that are fiber parents, and one accumulator level between.
func TestExecutorSteadyStateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(1))
	const rank = 48
	for _, dims := range [][]int{{24, 20}, {24, 20, 16}, {24, 20, 16, 12}} {
		x := randTensorN(rng, dims, 3000)
		factors := make([]*la.Matrix, len(dims))
		for m := 1; m < len(dims); m++ {
			factors[m] = randMatrix(rng, dims[m], rank)
		}
		out := la.NewMatrix(dims[0], rank)
		for _, opts := range allocCases() {
			if opts.Grid != nil {
				opts.Grid = opts.Grid[:len(dims)]
			}
			e, err := NewExecutor(x, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: the first Run at a rank sizes the pooled buffers
			// and the parallel launches spawn their first goroutines.
			for i := 0; i < 2; i++ {
				if err := e.Run(factors, out); err != nil {
					t.Fatal(err)
				}
			}
			e.Metrics().Reset()
			allocs := testing.AllocsPerRun(20, func() {
				if err := e.Run(factors, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("order %d %+v: %.2f allocs per steady-state Run, want 0", len(dims), opts, allocs)
			}
			// The collector must have been live during the zero-alloc
			// window (see the order-3 twin of this assertion).
			snap := e.Metrics().Snapshot()
			if snap.Runs < 20 || snap.NNZ <= 0 || snap.BytesEst <= 0 || snap.WallNS <= 0 {
				t.Errorf("order %d %+v: collector dead or degenerate during alloc window: %+v", len(dims), opts, snap)
			}
			var workerNS int64
			for _, ns := range snap.WorkerNS {
				workerNS += ns
			}
			if workerNS <= 0 {
				t.Errorf("order %d %+v: no worker time recorded: %v", len(dims), opts, snap.WorkerNS)
			}
		}
	}
}

// TestExecutorMatchesOracle checks every options row against the dense
// oracle, for every output mode, across orders 2–5.
func TestExecutorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][]int{
		{13, 9},
		{11, 8, 7},
		{9, 8, 7, 6},
		{7, 6, 5, 4, 3},
	}
	const rank = 19 // off the register-block width on purpose
	for _, dims := range shapes {
		x := randTensorN(rng, dims, 400)
		all := make([]*la.Matrix, len(dims))
		for m := range dims {
			all[m] = randMatrix(rng, dims[m], rank)
		}
		for mode := range dims {
			want := denseMTTKRP(x, all, mode, rank)
			for _, opts := range allocCases() {
				if opts.Grid != nil {
					// Fit the grid to this shape's order: reuse the 2s
					// pattern, padding higher orders with 1s.
					g := make([]int, len(dims))
					for m := range g {
						g[m] = 1
						if m < len(opts.Grid) {
							g[m] = opts.Grid[m]
						}
					}
					opts.Grid = g
				}
				e, err := NewExecutor(x, mode, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := la.NewMatrix(dims[mode], rank)
				// Twice: the second run exercises workspace reuse.
				for i := 0; i < 2; i++ {
					if err := e.Run(all, got); err != nil {
						t.Fatal(err)
					}
				}
				if d := got.MaxAbsDiff(want); d > 1e-9 {
					t.Errorf("order %d mode %d %+v: differs from oracle by %v",
						len(dims), mode, opts, d)
				}
			}
		}
	}
}

// TestExecutorRankChangeResizesWorkspace: running the same executor at
// a new rank must re-size the pooled buffers, then stay correct and
// allocation-free at the new rank.
func TestExecutorRankChangeResizesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{12, 10, 8, 6}
	x := randTensorN(rng, dims, 600)
	e, err := NewExecutor(x, 0, Options{RankBlockCols: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{48, 17, 48} {
		factors := make([]*la.Matrix, len(dims))
		for m := 1; m < len(dims); m++ {
			factors[m] = randMatrix(rng, dims[m], rank)
		}
		want := denseMTTKRP(x, factors, 0, rank)
		got := la.NewMatrix(dims[0], rank)
		for i := 0; i < 2; i++ {
			if err := e.Run(factors, got); err != nil {
				t.Fatal(err)
			}
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("rank %d after resize: differs from oracle by %v", rank, d)
		}
	}
}

// TestExecutorValidation covers constructor and Run operand checks.
func TestExecutorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := []int{6, 5, 4}
	x := randTensorN(rng, dims, 40)
	if _, err := NewExecutor(x, -1, Options{}); err == nil {
		t.Error("mode -1 accepted")
	}
	if _, err := NewExecutor(x, 3, Options{}); err == nil {
		t.Error("mode out of range accepted")
	}
	if _, err := NewExecutor(x, 0, Options{Workers: -1}); err == nil {
		t.Error("Workers=-1 accepted")
	}
	if _, err := NewExecutor(x, 0, Options{Grid: []int{2, 2}}); err == nil {
		t.Error("short grid accepted")
	}
	if _, err := NewExecutor(x, 0, Options{Algorithm: AlgCOO + 1}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	e, err := NewExecutor(x, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mode() != 1 || e.Order() != 3 || e.NNZ() != x.NNZ() {
		t.Fatalf("accessors: mode=%d order=%d nnz=%d", e.Mode(), e.Order(), e.NNZ())
	}
	a := randMatrix(rng, dims[0], 8)
	c := randMatrix(rng, dims[2], 8)
	out := la.NewMatrix(dims[1], 8)
	cases := []struct {
		name    string
		factors []*la.Matrix
		out     *la.Matrix
	}{
		{"wrong factor count", []*la.Matrix{a, nil}, out},
		{"missing factor", []*la.Matrix{a, nil, nil}, out},
		{"wrong out rows", []*la.Matrix{a, nil, c}, la.NewMatrix(dims[0], 8)},
		{"rank mismatch", []*la.Matrix{a, nil, c}, la.NewMatrix(dims[1], 9)},
	}
	for _, tc := range cases {
		if err := e.Run(tc.factors, tc.out); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if err := e.Run([]*la.Matrix{a, nil, c}, out); err != nil {
		t.Errorf("valid operands rejected: %v", err)
	}
}

// TestExecutorEmptyTensor: an executor over an empty tensor zeroes the
// output and returns.
func TestExecutorEmptyTensor(t *testing.T) {
	x := NewTensor([]int{4, 3, 2}, 0)
	for _, opts := range []Options{{}, {Grid: []int{2, 1, 1}}} {
		e, err := NewExecutor(x, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		b := la.NewMatrix(3, 5)
		c := la.NewMatrix(2, 5)
		out := la.NewMatrix(4, 5)
		out.Data[0] = 7 // must be cleared
		if err := e.Run([]*la.Matrix{nil, b, c}, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out.Data {
			if v != 0 {
				t.Fatalf("%+v: out[%d] = %v, want 0", opts, i, v)
			}
		}
	}
}

// TestExecutorGridNormalization: grids clamp to the shape, and all-ones
// grids take the unblocked path.
func TestExecutorGridNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{6, 5, 4}
	x := randTensorN(rng, dims, 60)
	factors := make([]*la.Matrix, 3)
	for m := 1; m < 3; m++ {
		factors[m] = randMatrix(rng, dims[m], 8)
	}
	want := denseMTTKRP(x, factors, 0, 8)
	for _, grid := range [][]int{nil, {1, 1, 1}, {100, 1, 9}, {0, -2, 1}} {
		e, err := NewExecutor(x, 0, Options{Grid: grid})
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		got := la.NewMatrix(dims[0], 8)
		if err := e.Run(factors, got); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("grid %v: differs from oracle by %v", grid, d)
		}
	}
}

// TestRootShares: the leaf-balanced root split — now sched.Shares over
// the rootLeafEnds weight function — covers every root exactly once,
// in order.
func TestRootShares(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randTensorN(rng, []int{17, 6, 5}, 300)
	c, err := Build(x, DefaultModeOrder(x.Dims, 0))
	if err != nil {
		t.Fatal(err)
	}
	end := rootLeafEnds(c)
	cum := func(i int) int64 { return end[i] }
	for _, workers := range []int{2, 3, 5, 32} {
		shares := sched.Shares(c.NumNodes(0), workers, cum)
		if shares == nil {
			t.Fatalf("workers=%d: nil shares", workers)
		}
		prev := 0
		for _, s := range shares {
			if s[0] != prev {
				t.Fatalf("workers=%d: share starts at %d, want %d (%v)", workers, s[0], prev, shares)
			}
			if s[1] < s[0] {
				t.Fatalf("workers=%d: inverted share %v", workers, s)
			}
			prev = s[1]
		}
		if prev != c.NumNodes(0) {
			t.Fatalf("workers=%d: shares end at %d, want %d", workers, prev, c.NumNodes(0))
		}
	}
	if s := sched.Shares(c.NumNodes(0), 1, cum); len(s) != 1 {
		t.Errorf("workers=1: got shares %v, want one full-span share", s)
	}
}

// TestExecutorRunReleasesOperands: after Run the workspace must not
// keep the caller's factors and output reachable, so a long-lived
// executor does not pin a finished job's matrices.
func TestExecutorRunReleasesOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dims := []int{12, 9, 8, 7}
	x := randTensorN(rng, dims, 400)
	const rank = 20
	factors := make([]*la.Matrix, len(dims))
	for m := 1; m < len(dims); m++ {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 3, RankBlockCols: 8},
		{Workers: 2, Grid: []int{2, 2, 1, 2}},
		{Workers: 2, Algorithm: AlgAccumulator},
		{Workers: 2, Algorithm: AlgCOO},
	} {
		e, err := NewExecutor(x, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(factors, la.NewMatrix(dims[0], rank)); err != nil {
			t.Fatal(err)
		}
		if e.ws.factors != nil || e.ws.out != nil {
			t.Errorf("%+v: workspace still holds the operands after Run", opts)
		}
		for w, wk := range e.ws.walkers {
			if wk.factors != nil || wk.out != nil {
				t.Errorf("%+v: walker %d still holds the operands after Run", opts, w)
			}
		}
	}
}

// TestExecutorAgainstOneShot: the pooled executor matches the
// independent dense oracle, and the one-shot MTTKRP entry point —
// itself a one-run executor over a caller-built tree — agrees with it
// bit for bit on the same tree shape.
func TestExecutorAgainstOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{10, 9, 8, 7}
	x := randTensorN(rng, dims, 500)
	const rank = 24
	factors := make([]*la.Matrix, len(dims))
	for m := range dims {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	for mode := range dims {
		opts := Options{RankBlockCols: 16, Workers: 1}
		want := denseMTTKRP(x, factors, mode, rank)
		e, err := NewExecutor(x, mode, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := la.NewMatrix(dims[mode], rank)
		if err := e.Run(factors, got); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d: executor differs from the dense oracle by %v", mode, d)
		}
		c, err := Build(x, DefaultModeOrder(dims, mode))
		if err != nil {
			t.Fatal(err)
		}
		once := la.NewMatrix(dims[mode], rank)
		if err := MTTKRP(c, factors, once, opts); err != nil {
			t.Fatal(err)
		}
		if d := once.MaxAbsDiff(got); d != 0 {
			t.Errorf("mode %d: one-shot differs from executor by %v", mode, d)
		}
	}
}

func ExampleNewExecutor() {
	x := NewTensor([]int{2, 2, 2, 2}, 2)
	x.Append([]Index{0, 1, 0, 1}, 2)
	x.Append([]Index{1, 0, 1, 0}, 3)
	factors := make([]*la.Matrix, 4)
	for m := 1; m < 4; m++ {
		factors[m] = la.NewMatrix(2, 1)
		for i := range factors[m].Data {
			factors[m].Data[i] = 1
		}
	}
	e, err := NewExecutor(x, 0, Options{})
	if err != nil {
		panic(err)
	}
	out := la.NewMatrix(2, 1)
	if err := e.Run(factors, out); err != nil {
		panic(err)
	}
	fmt.Println(out.Data)
	// Output: [2 3]
}
