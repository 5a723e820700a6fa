package als

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"spblock/internal/la"
)

// denseKernel is a brute-force MTTKRP over an explicit dense tensor,
// stored as nested index arithmetic over a flat value slice.
type denseKernel struct {
	dims []int
	vals []float64
	// sweepStarts counts StartSweep invocations when used as a starter.
	sweepStarts int
	failMode    int // MTTKRP on this mode errors; -1 disables
}

func (k *denseKernel) Dims() []int { return k.dims }

func (k *denseKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	if mode == k.failMode {
		return errors.New("injected kernel failure")
	}
	out.Zero()
	n := len(k.dims)
	coords := make([]int, n)
	for p, v := range k.vals {
		if v == 0 {
			continue
		}
		rem := p
		for m := n - 1; m >= 0; m-- {
			coords[m] = rem % k.dims[m]
			rem /= k.dims[m]
		}
		row := out.Row(coords[mode])
		for q := 0; q < out.Cols; q++ {
			w := v
			for m := 0; m < n; m++ {
				if m != mode {
					w *= factors[m].At(coords[m], q)
				}
			}
			row[q] += w
		}
	}
	return nil
}

// startingKernel adds the SweepStarter extension.
type startingKernel struct{ denseKernel }

func (k *startingKernel) StartSweep([]*la.Matrix) error {
	k.sweepStarts++
	return nil
}

// rankOne builds a dense rank-1 tensor a ⊗ b ⊗ c with positive entries
// and returns the kernel plus ‖X‖.
func rankOne(dims []int) (*denseKernel, float64) {
	n := len(dims)
	vecs := make([][]float64, n)
	for m, d := range dims {
		vecs[m] = make([]float64, d)
		for i := range vecs[m] {
			vecs[m][i] = float64(i+1) / float64(d)
		}
	}
	total := 1
	for _, d := range dims {
		total *= d
	}
	k := &denseKernel{dims: dims, vals: make([]float64, total), failMode: -1}
	var norm2 float64
	for p := range k.vals {
		rem, v := p, 1.0
		for m := n - 1; m >= 0; m-- {
			v *= vecs[m][rem%dims[m]]
			rem /= dims[m]
		}
		k.vals[p] = v
		norm2 += v * v
	}
	return k, math.Sqrt(norm2)
}

func TestRunValidation(t *testing.T) {
	k, _ := rankOne([]int{3, 3})
	if _, err := Run(k, Config{Rank: 0}); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, err := Run(k, Config{Rank: 0, ErrPrefix: "cpd"}); err == nil ||
		!strings.HasPrefix(err.Error(), "cpd:") {
		t.Error("ErrPrefix not applied")
	}
	short := &denseKernel{dims: []int{4}, failMode: -1}
	if _, err := Run(short, Config{Rank: 1}); err == nil {
		t.Error("order-1 kernel accepted")
	}
}

func TestRunRecoversRankOne(t *testing.T) {
	for _, dims := range [][]int{{6, 5}, {5, 4, 3}, {4, 3, 3, 2}} {
		k, normX := rankOne(dims)
		res, err := Run(k, Config{Rank: 1, MaxIters: 60, Tol: 1e-12, Seed: 3, NormX: normX})
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Fits[len(res.Fits)-1]; f < 0.9999 {
			t.Errorf("order %d: rank-1 fit = %v", len(dims), f)
		}
		if len(res.Factors) != len(dims) || len(res.Lambda) != 1 {
			t.Errorf("order %d: result shape wrong", len(dims))
		}
		for i := 1; i < len(res.Fits); i++ {
			if res.Fits[i] < res.Fits[i-1]-1e-8 {
				t.Errorf("order %d: fit decreased at sweep %d", len(dims), i)
			}
		}
	}
}

func TestRunDeterministicTrajectory(t *testing.T) {
	k, normX := rankOne([]int{5, 4, 3})
	cfg := Config{Rank: 2, MaxIters: 8, Tol: 1e-15, Seed: 7, NormX: normX}
	a, err := Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fits) != len(b.Fits) {
		t.Fatalf("sweep counts differ: %d vs %d", len(a.Fits), len(b.Fits))
	}
	for i := range a.Fits {
		if a.Fits[i] != b.Fits[i] {
			t.Fatalf("sweep %d: %v vs %v", i, a.Fits[i], b.Fits[i])
		}
	}
}

func TestRunStartSweepHook(t *testing.T) {
	base, normX := rankOne([]int{4, 3, 2})
	k := &startingKernel{denseKernel: *base}
	res, err := Run(k, Config{Rank: 1, MaxIters: 5, Tol: 1e-15, Seed: 1, NormX: normX})
	if err != nil {
		t.Fatal(err)
	}
	if k.sweepStarts != res.Iters {
		t.Fatalf("StartSweep ran %d times over %d sweeps", k.sweepStarts, res.Iters)
	}
}

func TestRunKernelErrorReturnsPartialResult(t *testing.T) {
	k, normX := rankOne([]int{4, 3, 2})
	k.failMode = 1
	res, err := Run(k, Config{Rank: 1, MaxIters: 5, Seed: 1, NormX: normX})
	if err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if res == nil || len(res.Factors) != 3 {
		t.Fatal("partial result missing")
	}
}

// TestRunPhaseTiming: every completed sweep accounts wall time to all
// three phase buckets, and a mid-sweep kernel error still returns the
// MTTKRP time spent before the failure.
func TestRunPhaseTiming(t *testing.T) {
	k, normX := rankOne([]int{6, 5, 4})
	res, err := Run(k, Config{Rank: 2, MaxIters: 4, Tol: 1e-15, Seed: 2, NormX: normX})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p.MTTKRPNS <= 0 || p.SolveNS <= 0 || p.NormNS <= 0 {
		t.Fatalf("phase buckets not all fed: %+v", p)
	}
	if s := p.MTTKRPShare(); s <= 0 || s >= 1 {
		t.Fatalf("MTTKRP share = %v", s)
	}

	k2, normX2 := rankOne([]int{4, 3, 2})
	k2.failMode = 1
	res2, err := Run(k2, Config{Rank: 1, MaxIters: 5, Seed: 1, NormX: normX2})
	if err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if res2.Phases.MTTKRPNS <= 0 {
		t.Fatalf("partial result lost its phase time: %+v", res2.Phases)
	}
}

// recoveringKernel adds the SweepRecoverer extension: MTTKRP on mode 1
// fails failuresLeft times, and RecoverSweep records its consultations.
type recoveringKernel struct {
	denseKernel
	failuresLeft int
	recoverCalls int
	refuse       bool
	nanMode0     bool
}

func (k *recoveringKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	if k.nanMode0 && mode == 0 {
		if err := k.denseKernel.MTTKRP(mode, factors, out); err != nil {
			return err
		}
		out.Data[0] = math.NaN() // poisons the gram; the *solve* fails
		return nil
	}
	if k.failuresLeft > 0 && mode == 1 {
		k.failuresLeft--
		return errors.New("transient kernel failure")
	}
	return k.denseKernel.MTTKRP(mode, factors, out)
}

func (k *recoveringKernel) RecoverSweep(sweep, mode, attempt int, err error) bool {
	k.recoverCalls++
	return !k.refuse
}

func TestSweepRetryRecovers(t *testing.T) {
	base, normX := rankOne([]int{5, 4, 3})
	k := &recoveringKernel{denseKernel: *base, failuresLeft: 2}
	res, err := Run(k, Config{Rank: 1, MaxIters: 30, Tol: 1e-12, Seed: 3,
		NormX: normX, MaxSweepRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SweepRetries != 2 {
		t.Fatalf("SweepRetries = %d, want 2", res.SweepRetries)
	}
	if k.recoverCalls != 2 {
		t.Fatalf("recoverer consulted %d times, want 2", k.recoverCalls)
	}
	if f := res.Fits[len(res.Fits)-1]; f < 0.999 {
		t.Fatalf("recovered run did not converge: fit %v", f)
	}
}

func TestSweepRetryExhaustsBudget(t *testing.T) {
	base, normX := rankOne([]int{4, 3, 2})
	k := &recoveringKernel{denseKernel: *base, failuresLeft: 100}
	res, err := Run(k, Config{Rank: 1, MaxIters: 5, Seed: 1, NormX: normX,
		MaxSweepRetries: 2})
	if err == nil {
		t.Fatal("permanent failure not surfaced")
	}
	if res.SweepRetries != 2 {
		t.Fatalf("SweepRetries = %d, want 2", res.SweepRetries)
	}
	if k.recoverCalls != 2 {
		t.Fatalf("recoverer consulted %d times, want 2", k.recoverCalls)
	}
}

func TestSweepRetryRefusedByKernel(t *testing.T) {
	base, normX := rankOne([]int{4, 3, 2})
	k := &recoveringKernel{denseKernel: *base, failuresLeft: 1, refuse: true}
	res, err := Run(k, Config{Rank: 1, MaxIters: 5, Seed: 1, NormX: normX,
		MaxSweepRetries: 3})
	if err == nil {
		t.Fatal("refused recovery must abort")
	}
	if res.SweepRetries != 0 || k.recoverCalls != 1 {
		t.Fatalf("retries=%d calls=%d, want 0/1", res.SweepRetries, k.recoverCalls)
	}
}

func TestSweepRetryDisabledByDefault(t *testing.T) {
	base, normX := rankOne([]int{4, 3, 2})
	k := &recoveringKernel{denseKernel: *base, failuresLeft: 1}
	_, err := Run(k, Config{Rank: 1, MaxIters: 5, Seed: 1, NormX: normX})
	if err == nil {
		t.Fatal("MaxSweepRetries=0 must disable retry")
	}
	if k.recoverCalls != 0 {
		t.Fatalf("recoverer consulted %d times with retry disabled", k.recoverCalls)
	}
}

func TestSolveErrorsNeverRetried(t *testing.T) {
	base, normX := rankOne([]int{4, 3, 2})
	k := &recoveringKernel{denseKernel: *base, nanMode0: true}
	res, err := Run(k, Config{Rank: 1, MaxIters: 5, Seed: 1, NormX: normX,
		MaxSweepRetries: 5})
	if err == nil {
		t.Fatal("poisoned solve not surfaced")
	}
	if !strings.Contains(err.Error(), "solve") {
		t.Fatalf("error does not identify the solve: %v", err)
	}
	if k.recoverCalls != 0 || res.SweepRetries != 0 {
		t.Fatalf("numerical failure was retried: calls=%d retries=%d",
			k.recoverCalls, res.SweepRetries)
	}
}

// cancellingKernel cancels its context after a fixed number of MTTKRP
// dispatches and records whether the loop ever consulted the recoverer
// afterwards — cancellation must be non-retryable.
type cancellingKernel struct {
	denseKernel
	cancel      func()
	cancelAfter int
	calls       int
	recoverAsks int
}

func (k *cancellingKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	k.calls++
	if k.calls == k.cancelAfter {
		k.cancel()
	}
	return k.denseKernel.MTTKRP(mode, factors, out)
}

func (k *cancellingKernel) RecoverSweep(sweep, mode, attempt int, err error) bool {
	k.recoverAsks++
	return true
}

func TestRunCtxCancelMidSweep(t *testing.T) {
	base, normX := rankOne([]int{5, 4, 3})
	ctx, cancel := context.WithCancel(context.Background())
	k := &cancellingKernel{denseKernel: *base, cancel: cancel, cancelAfter: 4}
	res, err := Run(k, Config{
		Rank: 2, MaxIters: 50, Tol: 1e-12, Seed: 1, NormX: normX,
		Ctx: ctx, MaxSweepRetries: 3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancel lands during call 4 (sweep 2, mode 1); the loop must
	// stop at the next between-products check, before mode 2 dispatches.
	if k.calls != 4 {
		t.Fatalf("kernel ran %d products after cancel, want exactly 4", k.calls)
	}
	if k.recoverAsks != 0 {
		t.Fatalf("cancellation was offered to the recoverer %d times", k.recoverAsks)
	}
	if res == nil || res.Iters != 1 {
		t.Fatalf("partial result missing or wrong: %+v", res)
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	k, normX := rankOne([]int{4, 3, 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(k, Config{Rank: 1, Seed: 1, NormX: normX, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 || len(res.Fits) != 0 {
		t.Fatalf("pre-canceled run produced sweeps: %+v", res)
	}
}

func TestRunCtxCancelBeforeStartSweep(t *testing.T) {
	base, normX := rankOne([]int{4, 3, 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := &startingKernel{denseKernel: *base}
	if _, err := Run(k, Config{Rank: 1, Seed: 1, NormX: normX, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if k.sweepStarts != 0 {
		t.Fatalf("StartSweep ran %d times on a canceled context", k.sweepStarts)
	}
}
