package cpd

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"spblock/internal/als"
	"spblock/internal/engine"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
)

func stageForTest(t *testing.T, x *nmode.Tensor, grid []int) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "in.tns")
	if err := nmode.SaveTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, "staged")
	if _, err := ooc.Stage(path, stage, ooc.StageOptions{Grid: grid}); err != nil {
		t.Fatal(err)
	}
	return stage
}

func randSparseN(seed int64, dims []int, nnz int) *nmode.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := nmode.NewTensor(dims, nnz)
	coords := make([]nmode.Index, len(dims))
	for p := 0; p < nnz; p++ {
		for m, d := range dims {
			coords[m] = nmode.Index(rng.Intn(d))
		}
		x.Append(coords, rng.NormFloat64())
	}
	return x
}

func requireSameResult(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if a.Iters != b.Iters || a.Converged != b.Converged {
		t.Fatalf("%s: trajectory diverged: iters %d/%d converged %v/%v",
			tag, a.Iters, b.Iters, a.Converged, b.Converged)
	}
	for i, f := range a.Fits {
		if math.Float64bits(f) != math.Float64bits(b.Fits[i]) {
			t.Fatalf("%s: fit %d differs: %v vs %v", tag, i, f, b.Fits[i])
		}
	}
	for q, l := range a.Lambda {
		if math.Float64bits(l) != math.Float64bits(b.Lambda[q]) {
			t.Fatalf("%s: lambda %d differs: %v vs %v", tag, q, l, b.Lambda[q])
		}
	}
	for m := range a.Factors {
		for i, v := range a.Factors[m].Data {
			if math.Float64bits(v) != math.Float64bits(b.Factors[m].Data[i]) {
				t.Fatalf("%s: factor %d element %d differs: %v vs %v",
					tag, m, i, v, b.Factors[m].Data[i])
			}
		}
	}
}

// TestCPALSOOCMatchesCPALSNOrder4 pins the end-to-end contract: a full
// CP-ALS decomposition streamed at a 25% working-set budget is
// bit-identical — fits, lambdas, factors — to the in-memory engine
// over the same tensor and grid (order 4 uses the generic N-mode
// executors in both paths).
func TestCPALSOOCMatchesCPALSNOrder4(t *testing.T) {
	dims := []int{9, 12, 7, 8}
	grid := []int{2, 3, 2, 2}
	x := randSparseN(11, dims, 800)
	stage := stageForTest(t, x, grid)
	man, err := ooc.LoadManifest(stage)
	if err != nil {
		t.Fatal(err)
	}
	opts := NOptions{Rank: 6, MaxIters: 10, Tol: 1e-12, Seed: 3,
		Kernel: nmode.Options{Grid: grid, Workers: 2}}
	want, err := CPALSN(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ooc.Open(stage, ooc.Options{BudgetBytes: man.TotalBlockBytes() / 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := CPALSOOC(e, OOCOptions{Rank: 6, MaxIters: 10, Tol: 1e-12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "order4", want, got)
	// The product count must be one per (sweep, mode).
	for m := range dims {
		snap := e.Metrics(m).Snapshot()
		if snap.Runs != int64(got.Iters) {
			t.Fatalf("mode %d ran %d products for %d sweeps", m, snap.Runs, got.Iters)
		}
	}
}

// TestCPALSOOCMatchesGenericOrder3 pins the order-3 streamed run bit
// for bit against the in-memory N-mode engine: both walk the same
// blocks with the same nmode walker.
func TestCPALSOOCMatchesGenericOrder3(t *testing.T) {
	dims := []int{15, 11, 13}
	grid := []int{3, 2, 2}
	x := randSparseN(13, dims, 900)
	stage := stageForTest(t, x, grid)

	eng, err := engine.NewNEngine(x, nmode.Options{Grid: grid, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var normX float64
	for _, v := range x.Val {
		normX += v * v
	}
	cfg := als.Config{Rank: 5, MaxIters: 8, Tol: 1e-12, Seed: 9,
		NormX: math.Sqrt(normX), ErrPrefix: "cpd"}
	ares, err := als.Run(&nKernel{dims: x.Dims, eng: eng}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{Lambda: ares.Lambda, Factors: ares.Factors, Fits: ares.Fits,
		Iters: ares.Iters, Converged: ares.Converged}

	e, err := ooc.Open(stage, ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := CPALSOOC(e, OOCOptions{Rank: 5, MaxIters: 8, Tol: 1e-12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "order3", want, got)
}
