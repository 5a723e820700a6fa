package nmode

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spblock/internal/la"
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
					{Workers: 2},
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

// TestShortFiberBitIdentical pins the register walk's short-fiber path
// to Algorithm 1's accumulator body bit for bit, on mode trees made of
// one-nonzero fibers, two-nonzero fibers, a mix of 1, 2, 3 and long
// ones, and runs of 1 to 9 one-nonzero fibers broken by fibers of 2
// and 3 nonzeros (kernel.KRPAxpyRun's groups of 4 and 2 and its lone
// tail), at orders 2-5. The values and factors carry -0 entries,
// and one non-output factor has a +Inf, a -Inf and a NaN entry, so the
// signed-zero argument on Walker.Walk is exercised where it matters. The exported
// Walker, walked over the same tree or the same blocks in block order
// (the out-of-core path), must match the in-memory executor too.
func TestShortFiberBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shapes := []struct {
		name string
		lens []int
	}{
		{"singletons", []int{1}},
		{"pairs", []int{2}},
		{"mix", []int{1, 1, 1, 2, 2, 3, 0}}, // 0: a long fiber
		{"runs", oneNonzeroRuns()},
	}
	for _, dims := range [][]int{{40, 36}, {20, 18, 16}, {12, 10, 18, 16}, {6, 7, 16, 5, 18}} {
		grid := make([]int, len(dims))
		for m := range grid {
			grid[m] = 2
		}
		for _, shape := range shapes {
			for mode := range dims {
				mo := DefaultModeOrder(dims, mode)
				x := shortFiberTensor(rng, dims, mo, shape.lens)
				for _, rank := range []int{1, 7, 8, 31, 32, 33, 64} {
					factors := make([]*la.Matrix, len(dims))
					for m := range factors {
						factors[m] = specialMatrix(rng, dims[m], rank, m == (mode+1)%len(dims))
					}
					for _, opts := range []Options{
						{Workers: 1},
						{Workers: 2},
						{Grid: grid, Workers: 1},
						{Grid: grid, Workers: 2},
						{RankBlockCols: 8, Workers: 1},
						{RankBlockCols: 16, Workers: 2},
						{Grid: grid, RankBlockCols: 24, Workers: 2},
					} {
						want := runOpts(t, x, mode, opts, factors)
						where := func(what string) string {
							return fmt.Sprintf("%s order %d mode %d rank %d %+v: %s",
								shape.name, len(dims), mode, rank, opts, what)
						}
						acc := opts
						acc.Algorithm = AlgAccumulator
						assertSameBits(t, where("accumulator body"), runOpts(t, x, mode, acc, factors), want)
						if opts.RankBlockCols != 0 {
							continue
						}
						assertSameBits(t, where("Walker"), walkTrees(t, x, mo, opts.Grid, factors, rank), want)
					}
				}
			}
		}
	}
}

// oneNonzeroRuns is a fiber-length pattern of runs of 1 to 9
// one-nonzero fibers, each broken by a fiber of 2 or 3 nonzeros.
func oneNonzeroRuns() []int {
	var lens []int
	for r := 1; r <= 9; r++ {
		for range r {
			lens = append(lens, 1)
		}
		lens = append(lens, 2+r%2)
	}
	return lens
}

// shortFiberTensor builds a tensor whose tree under mode order mo has
// fibers of the lengths in lens, in turn in tree order (0 means a long
// fiber of 4 up to the leaf extent): each fiber is a distinct
// coordinate prefix over the non-leaf modes, drawn at random but
// mostly next to the one before, with a run of consecutive leaf
// coordinates, so a grid cuts few of them.
// Consecutive fibers under one parent follow the pattern of lens,
// except where a parent ends. About a tenth of the values are -0.
func shortFiberTensor(rng *rand.Rand, dims, mo []int, lens []int) *Tensor {
	n := len(dims)
	leaf := mo[n-1]
	prefixes := 1
	for _, m := range mo[:n-1] {
		prefixes *= dims[m]
	}
	fibers := min(150, prefixes/2)
	used := make(map[int]bool, fibers)
	keys := make([]int, 0, fibers)
	// key is the prefix in mixed radix over mo[:n-1], so ascending
	// keys are tree order. Three in four draws take the next prefix,
	// the same parent's next fiber unless a parent ends there, so runs
	// of fibers under one parent form at every order.
	key := -1
	for len(keys) < fibers {
		if key++; key >= prefixes || used[key] || rng.Intn(4) == 0 {
			key = rng.Intn(prefixes)
		}
		if !used[key] {
			used[key] = true
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	x := NewTensor(dims, 0)
	coords := make([]Index, n)
	for f, key := range keys {
		for d := n - 2; d >= 0; d-- {
			coords[mo[d]] = Index(key % dims[mo[d]])
			key /= dims[mo[d]]
		}
		k := lens[f%len(lens)]
		if k == 0 {
			k = 4 + rng.Intn(dims[leaf]-3)
		}
		start := rng.Intn(dims[leaf] - k + 1)
		for j := 0; j < k; j++ {
			coords[leaf] = Index(start + j)
			v := rng.NormFloat64()
			if rng.Intn(10) == 0 {
				v = math.Copysign(0, -1)
			}
			x.Append(coords, v)
		}
	}
	return x
}

// specialMatrix is randMatrix with about a tenth of its entries -0.
// A nonfinite one also gets one +Inf, one -Inf and one NaN entry in
// distinct rows, so some output elements go non-finite while most stay
// finite.
func specialMatrix(rng *rand.Rand, rows, cols int, nonfinite bool) *la.Matrix {
	m := randMatrix(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(10) == 0 {
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	if nonfinite {
		for k, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			m.Set((k*rows)/3, rng.Intn(cols), v)
		}
	}
	return m
}

// walkTrees runs the exported Walker over x's tree under mode order
// mo, or over its grid blocks in block order, as the out-of-core
// engine walks its staged blocks.
func walkTrees(t *testing.T, x *Tensor, mo, grid []int, factors []*la.Matrix, rank int) *la.Matrix {
	t.Helper()
	trees := []*CSF{}
	if grid == nil {
		c, err := Build(x, mo)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, c)
	} else {
		bt, err := BuildBlocked(x, grid, mo)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range bt.Blocks {
			if c != nil {
				trees = append(trees, c)
			}
		}
	}
	out := la.NewMatrix(x.Dims[mo[0]], rank)
	wk := NewWalker(x.Order(), rank)
	for _, c := range trees {
		wk.Walk(c, factors, out)
	}
	return out
}

// assertSameBits fails unless got and want hold the same float64 bit
// patterns, -0 included, and NaN in the same elements. NaN payloads are
// not compared: when both operands of an add are NaN, x86 returns the
// first operand's payload, and the compiler orders a commutative add's
// operands as it likes, so the register and accumulator bodies already
// disagree on which NaN survives.
func assertSameBits(t *testing.T, what string, got, want *la.Matrix) {
	t.Helper()
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				what, i, g, math.Float64bits(g), w, math.Float64bits(w))
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
				e, err := NewExecutor(x, mode, Options{Algorithm: AlgCOO, Workers: workers})
				if err != nil {
					t.Fatal(err)
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
