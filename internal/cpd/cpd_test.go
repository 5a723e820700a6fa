package cpd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/engine"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
	"spblock/internal/tensor"
)

// plantedTensor builds a dense tensor that is exactly rank `r` (as a
// COO with every entry stored), so CP-ALS at that rank can reach fit ≈ 1.
func plantedTensor(seed int64, dims tensor.Dims, r int) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	var f [3]*la.Matrix
	for n := 0; n < 3; n++ {
		f[n] = la.NewMatrix(dims[n], r)
		for i := range f[n].Data {
			f[n].Data[i] = rng.Float64() + 0.1
		}
	}
	t := tensor.NewCOO(dims, dims[0]*dims[1]*dims[2])
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var s float64
				for q := 0; q < r; q++ {
					s += f[0].At(i, q) * f[1].At(j, q) * f[2].At(k, q)
				}
				t.Append(tensor.Index(i), tensor.Index(j), tensor.Index(k), s)
			}
		}
	}
	return t
}

// TestEntryPointValidation runs the same input checks through all four
// entry points: rank <= 0 and an invalid tensor are rejected, and zero
// MaxIters and Tol take the defaults of 50 sweeps and 1e-5.
func TestEntryPointValidation(t *testing.T) {
	xn := randSparseN(17, []int{6, 5, 4}, 60)
	x := tensorFromN(xn)
	eng, err := engine.NewMultiModeExecutor(x, core.Plan{Method: core.MethodSPLATT})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ooc.Open(stageForTest(t, xn, []int{2, 2, 2}), ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bad := tensor.NewCOO(x.Dims, 0)
	bad.Append(9, 0, 0, 1)
	badN := nmode.NewTensor(xn.Dims, 0)
	badN.Append([]nmode.Index{9, 0, 0}, 1)

	nopts := func(o Options) NOptions {
		return NOptions{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Seed: o.Seed}
	}
	oopts := func(o Options) OOCOptions {
		return OOCOptions{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Seed: o.Seed}
	}
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
			func(o Options) (*Result, error) { return CPALSN(xn, nopts(o)) },
			func() (*Result, error) { return CPALSN(badN, NOptions{Rank: 2}) }},
		{"CPALSOOC",
			func(o Options) (*Result, error) { return CPALSOOC(e, oopts(o)) },
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
	dims := tensor.Dims{8, 9, 10}
	x := plantedTensor(2, dims, 3)
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
		idx := (int(x.I[p])*dims[1]+int(x.J[p]))*dims[2] + int(x.K[p])
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
	dims := tensor.Dims{10, 8, 12}
	x := plantedTensor(3, dims, 5)
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
	dims := tensor.Dims{12, 10, 8}
	x := plantedTensor(4, dims, 3)
	plans := []core.Plan{
		{Method: core.MethodSPLATT, Workers: 1},
		{Method: core.MethodCOO},
		{Method: core.MethodRankB, RankBlockCols: 16, Workers: 1},
		{Method: core.MethodMB, Grid: [3]int{2, 2, 2}, Workers: 1},
		{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16, Workers: 2},
	}
	var fits []float64
	for _, p := range plans {
		res, err := CPALS(x, Options{Rank: 3, MaxIters: 15, Tol: 1e-12, Seed: 9, Plan: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		fits = append(fits, res.Fit())
	}
	for i := 1; i < len(fits); i++ {
		if math.Abs(fits[i]-fits[0]) > 1e-6 {
			t.Fatalf("plan %v fit %v differs from SPLATT fit %v", plans[i], fits[i], fits[0])
		}
	}
}

func TestCPALSConvergesAndStops(t *testing.T) {
	dims := tensor.Dims{6, 6, 6}
	x := plantedTensor(5, dims, 2)
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
	dims := tensor.Dims{30, 25, 20}
	x := tensor.NewCOO(dims, 500)
	for p := 0; p < 500; p++ {
		x.Append(
			tensor.Index(rng.Intn(dims[0])),
			tensor.Index(rng.Intn(dims[1])),
			tensor.Index(rng.Intn(dims[2])),
			rng.Float64()+0.5,
		)
	}
	x.Dedup()
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
	x := plantedTensor(7, tensor.Dims{4, 5, 6}, 2)
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
	x := plantedTensor(8, tensor.Dims{4, 4, 4}, 2)
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructDense(res, tensor.Dims{4000, 4000, 4000}); err == nil {
		t.Fatal("huge reconstruction accepted")
	}
	if _, err := ReconstructDense(res, tensor.Dims{5, 4, 4}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	twoWay := &Result{Lambda: res.Lambda, Factors: res.Factors[:2]}
	if _, err := ReconstructDense(twoWay, tensor.Dims{4, 4, 4}); err == nil {
		t.Fatal("two-factor result accepted")
	}
}

func TestLambdaPositiveAndSorted(t *testing.T) {
	x := plantedTensor(9, tensor.Dims{8, 8, 8}, 3)
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
	dims := tensor.Dims{10, 9, 8}
	x := plantedTensor(11, dims, 3)
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
	dims := tensor.Dims{25, 20, 30}
	x := tensor.NewCOO(dims, 600)
	for p := 0; p < 600; p++ {
		x.Append(
			tensor.Index(rng.Intn(dims[0])),
			tensor.Index(rng.Intn(dims[1])),
			tensor.Index(rng.Intn(dims[2])),
			rng.Float64()+0.2,
		)
	}
	x.Dedup()
	res, err := CPALS(x, Options{Rank: 6, MaxIters: 15, Seed: 23, Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() <= 0 || math.IsNaN(res.Fit()) {
		t.Fatalf("memoized decomposition broken: fit=%v", res.Fit())
	}
}

// TestCPALSEngineMatchesCPALS pins the caller-supplied-engine path: the
// same tensor, seed and plan through a prebuilt engine must produce the
// bit-identical trajectory CPALS produces when it builds its own —
// the property that lets a serving cache substitute one for the other.
func TestCPALSEngineMatchesCPALS(t *testing.T) {
	x := plantedTensor(5, tensor.Dims{10, 9, 8}, 3)
	opts := Options{
		Rank: 3, MaxIters: 12, Tol: 1e-12, Seed: 7,
		Plan: core.Plan{Method: core.MethodMB, Grid: [3]int{2, 2, 2}},
	}
	want, err := CPALS(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewMultiModeExecutor(x, opts.Plan)
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
		if got.Plan.String() != want.Plan.String() {
			t.Fatalf("trial %d: plan %v vs %v", trial, got.Plan, want.Plan)
		}
	}
}

func TestCPALSEngineValidation(t *testing.T) {
	x := plantedTensor(5, tensor.Dims{6, 5, 4}, 2)
	eng, err := engine.NewMultiModeExecutor(x, core.Plan{Method: core.MethodSPLATT})
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
	other := plantedTensor(6, tensor.Dims{5, 5, 5}, 2)
	if _, err := CPALSEngine(other, eng, opts); err == nil {
		t.Error("dims mismatch accepted")
	}
	partial, err := engine.NewMultiModeExecutor(x, core.Plan{Method: core.MethodSPLATT}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CPALSEngine(x, partial, opts); err == nil {
		t.Error("engine missing mode 1 accepted")
	}
}

func TestCPALSCtxCanceled(t *testing.T) {
	x := plantedTensor(5, tensor.Dims{8, 7, 6}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 20, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CPALS err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("canceled CPALS ran sweeps: %+v", res)
	}
	eng, err := engine.NewMultiModeExecutor(x, core.Plan{Method: core.MethodSPLATT})
	if err != nil {
		t.Fatal(err)
	}
	res, err = CPALSEngine(x, eng, Options{Rank: 2, MaxIters: 20, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CPALSEngine err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("canceled CPALSEngine ran sweeps: %+v", res)
	}
}
