package cpd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
	"spblock/internal/tensor"
)

// TestEntryPointValidation runs the same input checks through every
// entry point, CPALS at order 3 and at order 4 ("CPALSN"): rank <= 0
// and an invalid tensor are rejected, and zero MaxIters and Tol take the
// defaults of 50 sweeps and 1e-5.
func TestEntryPointValidation(t *testing.T) {
	x := randSparseN(17, []int{6, 5, 4}, 60)
	x4 := randSparseN(17, []int{6, 5, 4, 3}, 80)
	eng, err := nmode.NewEngine(x, nmode.Options{Algorithm: nmode.AlgAccumulator})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ooc.Open(stageForTest(t, x, []int{2, 2, 2}), ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bad := nmode.NewTensor(x.Dims, 0)
	bad.Append([]nmode.Index{9, 0, 0}, 1)
	bad4 := nmode.NewTensor(x4.Dims, 0)
	bad4.Append([]nmode.Index{9, 0, 0, 0}, 1)

	entries := []struct {
		name    string
		run     func(Options) (*Result, error)
		invalid func() (*Result, error)
	}{
		{"CPALS",
			func(o Options) (*Result, error) { return CPALS(x, o) },
			func() (*Result, error) { return CPALS(bad, Options{Rank: 2}) }},
		{"CPALSEngine",
			func(o Options) (*Result, error) { return CPALSEngine(x, eng, o) },
			func() (*Result, error) { return CPALSEngine(bad, eng, Options{Rank: 2}) }},
		{"CPALSN",
			func(o Options) (*Result, error) { return CPALS(x4, o) },
			func() (*Result, error) { return CPALS(bad4, Options{Rank: 2}) }},
		{"CPALSOOC",
			func(o Options) (*Result, error) { return CPALSOOC(e, o) },
			nil}, // ooc.Stage and ooc.Open reject invalid tensors before an Engine exists
	}
	for _, ep := range entries {
		t.Run(ep.name, func(t *testing.T) {
			for _, rank := range []int{0, -1} {
				if _, err := ep.run(Options{Rank: rank}); err == nil {
					t.Errorf("rank %d accepted", rank)
				}
			}
			if ep.invalid != nil {
				if _, err := ep.invalid(); err == nil {
					t.Error("invalid tensor accepted")
				}
			}
			// MaxIters 0: a tolerance no sweep meets runs the default 50.
			res, err := ep.run(Options{Rank: 2, Tol: 1e-300, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != 50 || res.Converged {
				t.Errorf("default sweep budget: iters=%d converged=%v, want 50 unconverged", res.Iters, res.Converged)
			}
			// Tol 0: the run stops at the first fit change below 1e-5.
			res, err = ep.run(Options{Rank: 2, MaxIters: 1000, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.Fits)
			if !res.Converged || n < 3 {
				t.Fatalf("default tolerance: converged=%v after %d sweeps, want convergence after >= 3", res.Converged, n)
			}
			if d := math.Abs(res.Fits[n-1] - res.Fits[n-2]); d >= 1e-5 {
				t.Errorf("stopped on a fit change of %v, want < 1e-5", d)
			}
			if d := math.Abs(res.Fits[n-2] - res.Fits[n-3]); d < 1e-5 {
				t.Errorf("ran past a fit change of %v, want stop below 1e-5", d)
			}
		})
	}
}

func TestCPALSRecoversPlantedStructure(t *testing.T) {
	dims := []int{8, 9, 10}
	x := plantedTensorN(2, dims[:], 3)
	// ALS converges slowly near the optimum (the well-known "swamp"
	// behaviour), so give it plenty of sweeps.
	res, err := CPALS(x, Options{Rank: 3, MaxIters: 500, Tol: 1e-12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.999 {
		t.Fatalf("fit = %v, want > 0.999 for an exactly rank-3 tensor", res.Fit())
	}
	// Reconstruction must match the data.
	dense, err := ReconstructDense(res, dims)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff, maxVal float64
	for p := 0; p < x.NNZ(); p++ {
		idx := (int(x.Idx[0][p])*dims[1]+int(x.Idx[1][p]))*dims[2] + int(x.Idx[2][p])
		if d := math.Abs(dense[idx] - x.Val[p]); d > maxDiff {
			maxDiff = d
		}
		if v := math.Abs(x.Val[p]); v > maxVal {
			maxVal = v
		}
	}
	if maxDiff > 0.01*maxVal {
		t.Fatalf("reconstruction error %v exceeds 1%% of max %v", maxDiff, maxVal)
	}
}

func TestCPALSFitMonotonicallyImproves(t *testing.T) {
	// ALS is a monotone algorithm: the fit must never decrease by more
	// than numerical noise between sweeps.
	x := plantedTensorN(3, []int{10, 8, 12}, 5)
	res, err := CPALS(x, Options{Rank: 4, MaxIters: 40, Tol: 1e-12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1]-1e-8 {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, res.Fits[i-1], res.Fits[i])
		}
	}
}

func TestCPALSAllKernelsAgree(t *testing.T) {
	// The decomposition trajectory is a deterministic function of the
	// seed; since every kernel computes the same MTTKRP, all plans must
	// yield identical fits (up to float round-off from different
	// summation orders).
	x := plantedTensorN(4, []int{12, 10, 8}, 3)
	plans := []nmode.Options{
		{Algorithm: nmode.AlgAccumulator, Workers: 1},                       // SPLATT
		{Algorithm: nmode.AlgCOO},                                           // COO
		{RankBlockCols: 16, Workers: 1},                                     // RankB
		{Algorithm: nmode.AlgAccumulator, Grid: []int{2, 2, 2}, Workers: 1}, // MB
		{Grid: []int{2, 2, 2}, RankBlockCols: 16, Workers: 2},               // MB+RankB
	}
	var fits []float64
	for _, p := range plans {
		res, err := CPALS(x, Options{Rank: 3, MaxIters: 15, Tol: 1e-12, Seed: 9, Kernel: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		fits = append(fits, res.Fit())
	}
	for i := 1; i < len(fits); i++ {
		if math.Abs(fits[i]-fits[0]) > 1e-6 {
			t.Fatalf("kernel %+v fit %v differs from SPLATT fit %v", plans[i], fits[i], fits[0])
		}
	}
}

func TestCPALSConvergesAndStops(t *testing.T) {
	x := plantedTensorN(5, []int{6, 6, 6}, 2)
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 500, Tol: 1e-9, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d sweeps (fit %v)", res.Iters, res.Fit())
	}
	if res.Iters >= 500 {
		t.Fatal("converged flag set but all iterations used")
	}
	if len(res.Fits) != res.Iters {
		t.Fatalf("fits length %d != iters %d", len(res.Fits), res.Iters)
	}
}

func TestCPALSOnSparseTensor(t *testing.T) {
	// A genuinely sparse random tensor won't fit perfectly, but ALS
	// must run, improve, and stay finite.
	rng := rand.New(rand.NewSource(6))
	dims := []int{30, 25, 20}
	x := nmode.NewTensor(dims, 500)
	for p := 0; p < 500; p++ {
		x.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.Float64()+0.5)
	}
	tensor.Dedup(x)
	res, err := CPALS(x, Options{Rank: 8, MaxIters: 25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fits) == 0 {
		t.Fatal("no sweeps ran")
	}
	for _, f := range res.Fits {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("non-finite fit %v", f)
		}
	}
	if res.Fit() <= 0 {
		t.Fatalf("final fit %v should be positive", res.Fit())
	}
	if res.Fit() < res.Fits[0]-1e-9 {
		t.Fatal("fit regressed from first sweep")
	}
}

func TestCPALSRankLargerThanModes(t *testing.T) {
	// Rank exceeding a mode length triggers rank-deficient normal
	// equations; the ridge fallback must keep ALS alive.
	x := plantedTensorN(7, []int{4, 5, 6}, 2)
	res, err := CPALS(x, Options{Rank: 8, MaxIters: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Fits {
		if math.IsNaN(f) {
			t.Fatal("NaN fit with over-complete rank")
		}
	}
}

func TestReconstructDenseGuards(t *testing.T) {
	x := plantedTensorN(8, []int{4, 4, 4}, 2)
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructDense(res, []int{4000, 4000, 4000}); err == nil {
		t.Fatal("huge reconstruction accepted")
	}
	if _, err := ReconstructDense(res, []int{5, 4, 4}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	twoWay := &Result{Lambda: res.Lambda, Factors: res.Factors[:2]}
	if _, err := ReconstructDense(twoWay, []int{4, 4, 4}); err == nil {
		t.Fatal("two-factor result accepted")
	}
}

func TestLambdaPositiveAndSorted(t *testing.T) {
	x := plantedTensorN(9, []int{8, 8, 8}, 3)
	res, err := CPALS(x, Options{Rank: 3, MaxIters: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for q, l := range res.Lambda {
		if l < 0 || math.IsNaN(l) {
			t.Fatalf("lambda[%d] = %v", q, l)
		}
	}
	// Factor columns are unit norm after the final sweep.
	for n := 0; n < 3; n++ {
		norms := la.ColumnNorms(res.Factors[n])
		for q, v := range norms {
			if math.Abs(v-1) > 1e-8 && v != 0 {
				t.Fatalf("factor %d column %d norm %v, want 1", n, q, v)
			}
		}
	}
}

func TestMemoizedCPALSMatchesPlain(t *testing.T) {
	// Memoization rearranges arithmetic but computes the same sweep:
	// the fit trajectories must agree to float tolerance.
	x := plantedTensorN(11, []int{10, 9, 8}, 3)
	plain, err := CPALS(x, Options{Rank: 3, MaxIters: 12, Tol: 1e-14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	memoized, err := CPALS(x, Options{Rank: 3, MaxIters: 12, Tol: 1e-14, Seed: 21, Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Fits) != len(memoized.Fits) {
		t.Fatalf("sweep counts differ: %d vs %d", len(plain.Fits), len(memoized.Fits))
	}
	for i := range plain.Fits {
		if math.Abs(plain.Fits[i]-memoized.Fits[i]) > 1e-8 {
			t.Fatalf("sweep %d: memoized fit %v vs plain %v", i, memoized.Fits[i], plain.Fits[i])
		}
	}
}

func TestMemoizedCPALSOnSparseTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dims := []int{25, 20, 30}
	x := nmode.NewTensor(dims, 600)
	for p := 0; p < 600; p++ {
		x.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.Float64()+0.2)
	}
	tensor.Dedup(x)
	res, err := CPALS(x, Options{Rank: 6, MaxIters: 15, Seed: 23, Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() <= 0 || math.IsNaN(res.Fit()) {
		t.Fatalf("memoized decomposition broken: fit=%v", res.Fit())
	}
}

// TestCPALSEngineMatchesCPALS pins the caller-supplied-engine path: the
// same tensor, seed and kernel through a prebuilt engine must produce the
// bit-identical trajectory CPALS produces when it builds its own —
// the property that lets a serving cache substitute one for the other.
func TestCPALSEngineMatchesCPALS(t *testing.T) {
	x := plantedTensorN(5, []int{10, 9, 8}, 3)
	opts := Options{
		Rank: 3, MaxIters: 12, Tol: 1e-12, Seed: 7,
		Kernel: nmode.Options{Algorithm: nmode.AlgAccumulator, Grid: []int{2, 2, 2}},
	}
	want, err := CPALS(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := nmode.NewEngine(x, opts.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ { // the engine is reusable across jobs
		got, err := CPALSEngine(x, eng, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Fits) != len(want.Fits) {
			t.Fatalf("trial %d: %d sweeps vs %d", trial, len(got.Fits), len(want.Fits))
		}
		for i := range got.Fits {
			if got.Fits[i] != want.Fits[i] {
				t.Fatalf("trial %d sweep %d: fit %v != %v", trial, i, got.Fits[i], want.Fits[i])
			}
		}
		for mode := 0; mode < 3; mode++ {
			for i, v := range got.Factors[mode].Data {
				if v != want.Factors[mode].Data[i] {
					t.Fatalf("trial %d: factor %d differs at %d", trial, mode, i)
				}
			}
		}
	}
}

func TestCPALSEngineValidation(t *testing.T) {
	x := plantedTensorN(5, []int{6, 5, 4}, 2)
	splatt := nmode.Options{Algorithm: nmode.AlgAccumulator}
	eng, err := nmode.NewEngine(x, splatt)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 2}
	if _, err := CPALSEngine(x, nil, opts); err == nil {
		t.Error("nil engine accepted")
	}
	bad := opts
	bad.Memoize = true
	if _, err := CPALSEngine(x, eng, bad); err == nil {
		t.Error("Memoize accepted")
	}
	other := plantedTensorN(6, []int{5, 5, 5}, 2)
	if _, err := CPALSEngine(other, eng, opts); err == nil {
		t.Error("dims mismatch accepted")
	}
	partial, err := nmode.NewEngine(x, splatt, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CPALSEngine(x, partial, opts); err == nil {
		t.Error("engine missing mode 1 accepted")
	}
}

// TestCPALSCtxCanceled checks that a canceled Ctx stops every entry
// point before its first sweep, at order 3 and at order 4.
func TestCPALSCtxCanceled(t *testing.T) {
	x := plantedTensorN(5, []int{8, 7, 6}, 2)
	x4 := plantedTensorN(5, []int{6, 5, 4, 3}, 2)
	engines := map[*nmode.Tensor]*nmode.Engine{}
	for _, y := range []*nmode.Tensor{x, x4} {
		eng, err := nmode.NewEngine(y, nmode.Options{Algorithm: nmode.AlgAccumulator})
		if err != nil {
			t.Fatal(err)
		}
		engines[y] = eng
	}
	e, err := ooc.Open(stageForTest(t, x4, []int{2, 2, 2, 1}), ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Rank: 2, MaxIters: 20, Ctx: ctx}
	for name, run := range map[string]func() (*Result, error){
		"CPALS":               func() (*Result, error) { return CPALS(x, opts) },
		"CPALS order 4":       func() (*Result, error) { return CPALS(x4, opts) },
		"CPALSEngine":         func() (*Result, error) { return CPALSEngine(x, engines[x], opts) },
		"CPALSEngine order 4": func() (*Result, error) { return CPALSEngine(x4, engines[x4], opts) },
		"CPALSOOC":            func() (*Result, error) { return CPALSOOC(e, opts) },
	} {
		res, err := run()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s err = %v, want context.Canceled", name, err)
		}
		if res == nil || res.Iters != 0 {
			t.Fatalf("canceled %s ran sweeps: %+v", name, res)
		}
	}
}

// TestMemoizeRejected checks that only CPALS on a third-order tensor
// takes Memoize: the memoized kernel folds modes 1-2 outside a leased
// engine or the out-of-core stream, and exists only at order 3.
func TestMemoizeRejected(t *testing.T) {
	x := plantedTensorN(5, []int{6, 5, 4}, 2)
	x4 := plantedTensorN(5, []int{6, 5, 4, 3}, 2)
	eng, err := nmode.NewEngine(x, nmode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ooc.Open(stageForTest(t, x, []int{2, 1, 1}), ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	opts := Options{Rank: 2, MaxIters: 2, Memoize: true}
	if _, err := CPALSEngine(x, eng, opts); err == nil {
		t.Error("CPALSEngine accepted Memoize")
	}
	if _, err := CPALSOOC(e, opts); err == nil {
		t.Error("CPALSOOC accepted Memoize")
	}
	if _, err := CPALS(x4, opts); err == nil {
		t.Error("order-4 CPALS accepted Memoize")
	}
	if _, err := CPALS(x, opts); err != nil {
		t.Errorf("order-3 CPALS rejected Memoize: %v", err)
	}
}
