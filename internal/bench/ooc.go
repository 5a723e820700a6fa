package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"spblock/internal/cpd"
	"spblock/internal/gen"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
)

// oocBudgets are the working-set budgets swept by the out-of-core
// experiment, as fractions of the staged tensor's total decoded block
// footprint. 1.0 keeps every block slot in flight (streaming overhead
// only); 0.1 forces the pipeline down to a handful of resident slots.
var oocBudgets = []float64{1.0, 0.5, 0.25, 0.1}

// oocDataset builds the experiment's order-4 Poisson tensor at cfg's
// scale, mirroring the scaling discipline of the other experiments.
func oocDataset(cfg Config) (*nmode.Tensor, error) {
	dims := []int{96, 72, 60, 48}
	events := 400_000
	if cfg.Scale != 1 {
		f := cfg.Scale
		if f > 1 {
			f = 1
		}
		for m := range dims {
			if d := int(float64(dims[m]) * f); d >= 12 {
				dims[m] = d
			} else {
				dims[m] = 12
			}
		}
		if v := int(float64(events) * cfg.Scale); v >= 4000 {
			events = v
		} else {
			events = 4000
		}
	}
	return gen.PoissonN(gen.PoissonNParams{
		Dims:       dims,
		Events:     events,
		Components: 48,
		Spread:     1,
	}, cfg.Seed)
}

// OOC measures the out-of-core CP-ALS path (internal/ooc) against the
// in-memory engine on the same tensor and blocking grid. The tensor is
// written to a .tns file, staged to the paper's MB spatial blocks on
// disk, and decomposed at a sweep of working-set budgets; every run is
// checked bit-identical to the in-memory decomposition (same grid,
// same seed), so the table is a measurement, never a numerics fork.
// Per budget it reports the resident slot count, the streamed wall
// time, the consumer's IO-wait share of it, and how much prefetch work
// (read + decode + CSF build) was overlapped behind the MTTKRP kernel.
// A budget row errors out rather than report a run whose prefetch
// pipeline never engaged or whose result diverged.
func OOC(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	rank, iters := 32, 8
	grid := []int{3, 2, 2, 2}

	// The pipeline's decoder goroutines can only run concurrently with
	// the consumer when the runtime has at least two Ps; on a
	// single-core host GOMAXPROCS=1 serialises them and the overlap
	// measurement is zero by construction (the same reason Imbalance
	// forces two workers). Raise it for the experiment's duration.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}

	x, err := oocDataset(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "spblock-ooc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tnsPath := filepath.Join(dir, "x.tns")
	if err := nmode.SaveTNSFile(tnsPath, x); err != nil {
		return nil, err
	}
	man, err := ooc.Stage(tnsPath, filepath.Join(dir, "staged"), ooc.StageOptions{Grid: grid})
	if err != nil {
		return nil, err
	}

	opts := cpd.Options{Rank: rank, MaxIters: iters, Tol: 1e-12, Seed: cfg.Seed,
		Kernel: nmode.Options{Grid: grid, Workers: cfg.Workers}}
	var want *cpd.Result
	memSec := TimeBest(1, func() {
		want, err = cpd.CPALS(x, opts)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Out-of-core CP-ALS: streamed blocked partitions vs in-memory, by working-set budget",
		Note: fmt.Sprintf("tensor %v nnz=%d grid %v (%d blocks, slot %d B, total %d B), rank %d, %d sweeps; in-memory CP-ALS %.0f ms; every row bit-identical to the in-memory result; overlap = prefetch work hidden behind kernel time",
			x.Dims, x.NNZ(), man.Grid, len(man.Blocks), man.SlotBytes(), man.TotalBlockBytes(),
			rank, want.Iters, memSec*1e3),
		Header: []string{"budget", "slots", "resident_bytes", "wall_ms", "io_wait", "prefetch_ms", "overlap_ms", "fit", "parity"},
	}
	for _, frac := range oocBudgets {
		budget := int64(frac * float64(man.TotalBlockBytes()))
		e, err := ooc.Open(filepath.Join(dir, "staged"), ooc.Options{BudgetBytes: budget})
		if err != nil {
			return nil, err
		}
		var got *cpd.Result
		sec := TimeBest(1, func() {
			got, err = cpd.CPALSOOC(e, cpd.Options{Rank: rank, MaxIters: iters, Tol: 1e-12, Seed: cfg.Seed})
		})
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("ooc: budget %.2f: %w", frac, err)
		}
		if err := oocParity(want, got); err != nil {
			e.Close()
			return nil, fmt.Errorf("ooc: budget %.2f: %w", frac, err)
		}
		var wallNS, ioWaitNS, prefetchNS int64
		for m := range x.Dims {
			snap := e.Metrics(m).Snapshot()
			wallNS += snap.WallNS
			ioWaitNS += snap.IOWaitNS
			prefetchNS += snap.PrefetchTotalNS()
		}
		e.Close()
		if prefetchNS == 0 {
			return nil, fmt.Errorf("ooc: budget %.2f: prefetch pipeline recorded no work", frac)
		}
		overlapNS := prefetchNS - ioWaitNS
		if overlapNS < 0 {
			overlapNS = 0
		}
		ioFrac := 0.0
		if wallNS > 0 {
			ioFrac = float64(ioWaitNS) / float64(wallNS)
		}
		t.Add(
			fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%d", e.Depth()),
			fmt.Sprintf("%d", e.WorkingSetBytes()),
			fmt.Sprintf("%.1f", sec*1e3),
			fmt.Sprintf("%.1f%%", ioFrac*100),
			fmt.Sprintf("%.1f", float64(prefetchNS)/1e6),
			fmt.Sprintf("%.1f", float64(overlapNS)/1e6),
			fmt.Sprintf("%.6f", got.Fits[len(got.Fits)-1]),
			"ok",
		)
	}
	return t, nil
}

// oocParity demands the streamed decomposition reproduced the
// in-memory trajectory exactly — iteration count and every fit bit.
func oocParity(want, got *cpd.Result) error {
	if want.Iters != got.Iters || want.Converged != got.Converged {
		return fmt.Errorf("trajectory diverged: iters %d/%d converged %v/%v",
			want.Iters, got.Iters, want.Converged, got.Converged)
	}
	for i := range want.Fits {
		if math.Float64bits(want.Fits[i]) != math.Float64bits(got.Fits[i]) {
			return fmt.Errorf("fit %d differs: in-memory %v streamed %v", i, want.Fits[i], got.Fits[i])
		}
	}
	for m := range want.Factors {
		for i, v := range want.Factors[m].Data {
			if math.Float64bits(v) != math.Float64bits(got.Factors[m].Data[i]) {
				return fmt.Errorf("factor %d element %d differs: in-memory %v streamed %v",
					m, i, v, got.Factors[m].Data[i])
			}
		}
	}
	return nil
}
