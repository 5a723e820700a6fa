package bench

import (
	"fmt"

	"spblock/internal/cachesim"
	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// newProduct builds the mode-0 executor for plan over x: one plan's
// mode-1 MTTKRP, out = X₍₁₎ · (B ⊙ C).
func newProduct(x *nmode.Tensor, plan core.Plan) (*nmode.Executor, error) {
	opts, err := plan.Options()
	if err != nil {
		return nil, err
	}
	return nmode.NewExecutor(x, 0, opts)
}

// fig4Rank is the rank Figure 4 sweeps at (the paper uses 512).
const fig4Rank = 512

// Fig4 regenerates Figure 4: performance vs the number of rank blocks
// for Poisson2 and Poisson3 at rank 512, against the SPLATT baseline.
// Larger block count = narrower strips (BS = R / NRankB).
func Fig4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Figure 4: performance vs RankB block count (rank 512)",
		Note:   "GFLOP/s per Equation 2; block size BS = 512/N columns",
		Header: []string{"Dataset", "Config", "BS (cols)", "Time (s)", "GFLOP/s", "vs SPLATT"},
	}
	for _, name := range []string{"Poisson2", "Poisson3"} {
		x, _, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		csf, err := nmode.Build(x, tensor.SPLATTModeOrder())
		if err != nil {
			return nil, err
		}
		nnz, fibers := int64(csf.NNZ()), int64(csf.NumNodes(1))
		factors := []*la.Matrix{nil,
			randomMatrix(x.Dims[1], fig4Rank, cfg.Seed+3),
			randomMatrix(x.Dims[2], fig4Rank, cfg.Seed+4)}
		out := la.NewMatrix(x.Dims[0], fig4Rank)

		baselineExec, err := newProduct(x, core.Plan{Method: core.MethodSPLATT, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		baseSec := TimeBest(cfg.Reps, func() {
			if err := baselineExec.Run(factors, out); err != nil {
				panic(err)
			}
		})
		t.Add(name, "SPLATT", "-", fmt.Sprintf("%.4f", baseSec),
			fmt.Sprintf("%.2f", GFLOPS(nnz, fibers, fig4Rank, baseSec)), "1.00x")

		for _, blocks := range []int{1, 2, 4, 8, 16, 32} {
			bs := fig4Rank / blocks
			e, err := newProduct(x, core.Plan{
				Method: core.MethodRankB, RankBlockCols: bs, Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			sec := TimeBest(cfg.Reps, func() {
				if err := e.Run(factors, out); err != nil {
					panic(err)
				}
			})
			t.Add(name, fmt.Sprintf("RankB N=%d", blocks), fmt.Sprintf("%d", bs),
				fmt.Sprintf("%.4f", sec),
				fmt.Sprintf("%.2f", GFLOPS(nnz, fibers, fig4Rank, sec)),
				fmt.Sprintf("%.2fx", baseSec/sec))
		}
	}
	return t, nil
}

// Fig5Traffic is the cache-simulator companion to Figure 5: the same
// MB grid sweep measured as DRAM traffic through the POWER8-like
// hierarchy, which is where the grid choice actually shows up (the
// reproduction host's 260 MB L3 hides it from wall-clock).
func Fig5Traffic(cfg Config, rank int) (*Table, error) {
	cfg = cfg.withDefaults()
	if rank <= 0 {
		rank = fig5Rank
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 5 (traffic view): simulated DRAM MB vs MB grid (rank %d)", rank),
		Header: []string{"Dataset", "Grid", "DRAM MB", "B MB", "A MB", "vs SPLATT"},
	}
	for _, name := range []string{"Poisson2", "Poisson3"} {
		x, _, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		csf, err := nmode.Build(x, tensor.SPLATTModeOrder())
		if err != nil {
			return nil, err
		}
		baseTr, err := cachesim.MeasureTraffic(cachesim.POWER8(), func(h *cachesim.Hierarchy) error {
			return cachesim.TraceSPLATT(h, cachesim.Options{Rank: rank}, csf)
		})
		if err != nil {
			return nil, err
		}
		base := float64(baseTr.MemBytes(-1))
		t.Add(name, "SPLATT",
			fmt.Sprintf("%.1f", base/1e6),
			fmt.Sprintf("%.1f", float64(baseTr.MemBytes(cachesim.RegionB))/1e6),
			fmt.Sprintf("%.1f", float64(baseTr.MemBytes(cachesim.RegionA))/1e6),
			"1.00x")
		for _, grid := range fig5Grids {
			g := grid
			ok := true
			for m := 0; m < 3; m++ {
				if g[m] > x.Dims[m] {
					ok = false
				}
			}
			if !ok {
				continue
			}
			bt, err := nmode.BuildBlocked(x, g[:], tensor.SPLATTModeOrder())
			if err != nil {
				return nil, err
			}
			tr, err := cachesim.MeasureTraffic(cachesim.POWER8(), func(h *cachesim.Hierarchy) error {
				return cachesim.TraceSPLATT(h, cachesim.Options{Rank: rank}, bt.Blocks...)
			})
			if err != nil {
				return nil, err
			}
			total := float64(tr.MemBytes(-1))
			t.Add(name, fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]),
				fmt.Sprintf("%.1f", total/1e6),
				fmt.Sprintf("%.1f", float64(tr.MemBytes(cachesim.RegionB))/1e6),
				fmt.Sprintf("%.1f", float64(tr.MemBytes(cachesim.RegionA))/1e6),
				fmt.Sprintf("%.2fx", base/total))
		}
	}
	return t, nil
}

// fig5Grids are the MB grid shapes Figure 5 sweeps (the paper's x axis
// mixes mode-2-only blocking with mixed and extreme shapes).
var fig5Grids = [][3]int{
	{1, 2, 1}, {1, 4, 1}, {1, 8, 1}, {1, 16, 1}, {1, 32, 1},
	{2, 4, 1}, {1, 4, 2}, {1, 4, 4}, {2, 8, 2},
	{1, 1, 8}, {8, 1, 1}, {1, 10, 5},
	{16, 16, 16},
}

// fig5Rank is the rank used for the Figure 5 sweep.
const fig5Rank = 256

// Fig5 regenerates Figure 5: performance vs multi-dimensional block
// counts for Poisson2 and Poisson3.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Figure 5: performance vs MB grid (rank %d)", fig5Rank),
		Header: []string{"Dataset", "Grid", "Time (s)", "GFLOP/s", "vs SPLATT"},
	}
	for _, name := range []string{"Poisson2", "Poisson3"} {
		x, _, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		stats, err := tensor.ComputeStats(x)
		if err != nil {
			return nil, err
		}
		nnz, fibers := int64(stats.NNZ), int64(stats.Fibers)
		factors := []*la.Matrix{nil,
			randomMatrix(x.Dims[1], fig5Rank, cfg.Seed+5),
			randomMatrix(x.Dims[2], fig5Rank, cfg.Seed+6)}
		out := la.NewMatrix(x.Dims[0], fig5Rank)

		baselineExec, err := newProduct(x, core.Plan{Method: core.MethodSPLATT, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		baseSec := TimeBest(cfg.Reps, func() {
			if err := baselineExec.Run(factors, out); err != nil {
				panic(err)
			}
		})
		t.Add(name, "SPLATT", fmt.Sprintf("%.4f", baseSec),
			fmt.Sprintf("%.2f", GFLOPS(nnz, fibers, fig5Rank, baseSec)), "1.00x")

		for _, grid := range fig5Grids {
			g := grid
			ok := true
			for m := 0; m < 3; m++ {
				if g[m] > x.Dims[m] {
					ok = false
				}
			}
			if !ok {
				continue
			}
			e, err := newProduct(x, core.Plan{Method: core.MethodMB, Grid: g, Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			sec := TimeBest(cfg.Reps, func() {
				if err := e.Run(factors, out); err != nil {
					panic(err)
				}
			})
			t.Add(name, fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]),
				fmt.Sprintf("%.4f", sec),
				fmt.Sprintf("%.2f", GFLOPS(nnz, fibers, fig5Rank, sec)),
				fmt.Sprintf("%.2fx", baseSec/sec))
		}
	}
	return t, nil
}
