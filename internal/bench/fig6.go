package bench

import (
	"fmt"

	"spblock/internal/autotune"
	"spblock/internal/cachesim"
	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/roofline"
	"spblock/internal/tensor"
)

// Fig6Ranks are the decomposition ranks swept in Figure 6. The paper
// sweeps 16–2048; the bench default stops at 512 to keep the
// single-core run in minutes (the trend is established well before).
var Fig6Ranks = []int{16, 32, 64, 128, 256, 512}

// Fig6Datasets lists the six data sets of Figure 6(a)–(f).
var Fig6Datasets = []string{"Poisson2", "Poisson3", "NELL2", "Netflix", "Reddit", "Amazon"}

// Fig6 regenerates Figure 6: speedup of MB, RankB and MB+RankB over
// SPLATT across ranks and data sets. Block sizes come from the
// Sec. V-C heuristic, tuned once per data set at a mid-range rank and
// reused across the sweep (full per-rank tuning would multiply the
// wall-clock cost without changing the trend).
func Fig6(cfg Config, ranks []int, datasets []string) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(ranks) == 0 {
		ranks = Fig6Ranks
	}
	if len(datasets) == 0 {
		datasets = Fig6Datasets
	}
	t := &Table{
		Title:  "Figure 6: speedup of blocking methods over SPLATT",
		Note:   "block sizes from the Sec. V-C heuristic (tuned at rank 64)",
		Header: []string{"Dataset", "Rank", "SPLATT (s)", "MB", "RankB", "MB+RankB", "Tuned grid", "Tuned BS"},
	}
	for _, name := range datasets {
		x, _, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		if _, err := gen.Lookup(name); err != nil {
			return nil, err
		}
		// Tune once per data set at a mid-range rank.
		tuneOpts := core.AutotuneOptions{Trials: 1, Seed: cfg.Seed, Workers: cfg.Workers}
		mbPlan, _, err := core.Autotune(x, 64, core.MethodMB, tuneOpts)
		if err != nil {
			return nil, err
		}
		combPlan, _, err := core.Autotune(x, 64, core.MethodMBRankB, tuneOpts)
		if err != nil {
			return nil, err
		}

		splattExec, err := newProduct(x, core.Plan{Method: core.MethodSPLATT, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		mbExec, err := newProduct(x, mbPlan)
		if err != nil {
			return nil, err
		}
		combExec, err := newProduct(x, combPlan)
		if err != nil {
			return nil, err
		}

		for _, rank := range ranks {
			factors := []*la.Matrix{nil,
				randomMatrix(x.Dims[1], rank, cfg.Seed+int64(rank)),
				randomMatrix(x.Dims[2], rank, cfg.Seed+int64(rank)+1)}
			out := la.NewMatrix(x.Dims[0], rank)

			// RankB strip width follows the heuristic rule of thumb:
			// keep strips at the tuned width but never wider than the
			// rank.
			rbWidth := combPlan.RankBlockCols
			if rbWidth <= 0 || rbWidth > rank {
				rbWidth = min(64, rank)
			}
			rbExec, err := newProduct(x, core.Plan{
				Method: core.MethodRankB, RankBlockCols: rbWidth, Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}

			run := func(e *nmode.Executor) float64 {
				return TimeBest(cfg.Reps, func() {
					if err := e.Run(factors, out); err != nil {
						panic(err)
					}
				})
			}
			baseSec := run(splattExec)
			mbSec := run(mbExec)
			rbSec := run(rbExec)
			combSec := run(combExec)
			t.Add(name, fmt.Sprintf("%d", rank),
				fmt.Sprintf("%.4f", baseSec),
				fmt.Sprintf("%.2fx", baseSec/mbSec),
				fmt.Sprintf("%.2fx", baseSec/rbSec),
				fmt.Sprintf("%.2fx", baseSec/combSec),
				fmt.Sprintf("%dx%dx%d", combPlan.Grid[0], combPlan.Grid[1], combPlan.Grid[2]),
				fmt.Sprintf("%d", combPlan.RankBlockCols),
			)
		}
	}
	return t, nil
}

// Fig6Traffic is the cache-simulator companion to Figure 6: simulated
// DRAM bytes per kernel at one rank, which exposes the blocking benefit
// independently of the host CPU. It runs at a reduced tensor size
// because trace simulation is ~100x slower than execution.
func Fig6Traffic(cfg Config, rank int, datasets []string) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(datasets) == 0 {
		datasets = Fig6Datasets
	}
	if rank <= 0 {
		rank = 128
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 6 (traffic view): simulated DRAM MB at rank %d, POWER8-like cache", rank),
		Note: "modeled speedup = roofline time ratio vs SPLATT on a POWER8 socket " +
			"(time = max(DRAM bytes / 75 GB/s, flops / 279 GFLOP/s))",
		Header: []string{"Dataset", "SPLATT MB", "MB", "RankB", "MB+RankB",
			"B share", "MB spd", "RankB spd", "MB+RankB spd"},
	}
	for _, name := range datasets {
		x, _, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		tr, err := simulateKernels(x, rank)
		if err != nil {
			return nil, err
		}
		stats, err := tensor.ComputeStats(x)
		if err != nil {
			return nil, err
		}
		flops := 2 * float64(rank) * float64(stats.NNZ+stats.Fibers)
		modelSec := func(memMB float64) float64 {
			memSec := memMB * 1e6 / (roofline.POWER8Socket.MemGBs * 1e9)
			cpuSec := flops / (roofline.POWER8Socket.PeakGFLOP * 1e9)
			if memSec > cpuSec {
				return memSec
			}
			return cpuSec
		}
		base := modelSec(tr[0])
		t.Add(name,
			fmt.Sprintf("%.1f", tr[0]),
			fmt.Sprintf("%.1f", tr[1]),
			fmt.Sprintf("%.1f", tr[2]),
			fmt.Sprintf("%.1f", tr[3]),
			fmt.Sprintf("%.0f%%", tr[4]*100),
			fmt.Sprintf("%.2fx", base/modelSec(tr[1])),
			fmt.Sprintf("%.2fx", base/modelSec(tr[2])),
			fmt.Sprintf("%.2fx", base/modelSec(tr[3])),
		)
	}
	return t, nil
}

// simulateKernels returns DRAM MB for SPLATT, MB, RankB, MB+RankB and
// the fraction of SPLATT DRAM traffic attributable to the B factor.
// Block sizes come from the model-based autotuner (tuned against the
// same simulated cache the traffic is measured on — the host machine's
// own cache sizes are irrelevant to this experiment).
func simulateKernels(x *nmode.Tensor, rank int) ([5]float64, error) {
	var out [5]float64
	csf, err := nmode.Build(x, tensor.SPLATTModeOrder())
	if err != nil {
		return out, err
	}
	tuneOpts := autotune.Options{Seed: 7}
	mbRes, err := autotune.Tune(x, rank, core.MethodMB, autotune.StrategyModel, tuneOpts)
	if err != nil {
		return out, err
	}
	rbRes, err := autotune.Tune(x, rank, core.MethodRankB, autotune.StrategyModel, tuneOpts)
	if err != nil {
		return out, err
	}
	combRes, err := autotune.Tune(x, rank, core.MethodMBRankB, autotune.StrategyModel, tuneOpts)
	if err != nil {
		return out, err
	}
	bt, err := nmode.BuildBlocked(x, mbRes.Plan.Grid[:], tensor.SPLATTModeOrder())
	if err != nil {
		return out, err
	}
	btComb, err := nmode.BuildBlocked(x, combRes.Plan.Grid[:], tensor.SPLATTModeOrder())
	if err != nil {
		return out, err
	}
	rb := rbRes.Plan.RankBlockCols
	rbComb := combRes.Plan.RankBlockCols

	measure := func(trace func(h *cachesim.Hierarchy) error) (totalMB, bShare float64, err error) {
		tr, err := cachesim.MeasureTraffic(cachesim.POWER8(), trace)
		if err != nil {
			return 0, 0, err
		}
		total := float64(tr.MemBytes(-1))
		share := 0.0
		if total > 0 {
			share = float64(tr.MemBytes(cachesim.RegionB)) / total
		}
		return total / 1e6, share, nil
	}
	base, bShare, err := measure(func(h *cachesim.Hierarchy) error {
		return cachesim.TraceSPLATT(h, cachesim.Options{Rank: rank}, csf)
	})
	if err != nil {
		return out, err
	}
	mb, _, err := measure(func(h *cachesim.Hierarchy) error {
		return cachesim.TraceSPLATT(h, cachesim.Options{Rank: rank}, bt.Blocks...)
	})
	if err != nil {
		return out, err
	}
	rbT, _, err := measure(func(h *cachesim.Hierarchy) error {
		return cachesim.TraceRankB(h, cachesim.Options{Rank: rank, RankBlockCols: rb}, csf)
	})
	if err != nil {
		return out, err
	}
	comb, _, err := measure(func(h *cachesim.Hierarchy) error {
		return cachesim.TraceRankB(h, cachesim.Options{Rank: rank, RankBlockCols: rbComb}, btComb.Blocks...)
	})
	if err != nil {
		return out, err
	}
	out = [5]float64{base, mb, rbT, comb, bShare}
	return out, nil
}
