package bench

import (
	"fmt"

	"spblock/internal/cachesim"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/ppa"
	"spblock/internal/roofline"
	"spblock/internal/tensor"
)

// Fig2 regenerates Figure 2: arithmetic intensity of SPLATT MTTKRP for
// different cache hit rates and rank sizes (Equation 3).
func Fig2() (*Table, error) {
	series, err := roofline.Figure2Series()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 2: arithmetic intensity vs rank (I = R / (8 + 4R(1-α)))",
		Header: []string{"alpha"},
	}
	for _, r := range roofline.Figure2Ranks {
		t.Header = append(t.Header, fmt.Sprintf("R=%d", r))
	}
	for ai, alpha := range roofline.Figure2Alphas {
		row := []string{fmt.Sprintf("%.2f", alpha)}
		for ri := range roofline.Figure2Ranks {
			row = append(row, fmt.Sprintf("%.3f", series[ai][ri]))
		}
		t.Add(row...)
	}
	t.Note = fmt.Sprintf("POWER8 socket balance: %.2f flops/byte; generic CPU/GPU balance 6-12 (paper) => memory bound below those lines",
		roofline.POWER8Socket.Balance())
	return t, nil
}

// Table1 regenerates the pressure point analysis on a Poisson3-shaped
// tensor at rank 128 (Sec. IV-B): measured wall-clock per variant plus
// simulated DRAM traffic through the POWER8-like hierarchy.
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	x, _, err := Dataset(cfg, "Poisson3")
	if err != nil {
		return nil, err
	}
	csf, err := nmode.Build(x, tensor.SPLATTModeOrder())
	if err != nil {
		return nil, err
	}
	const rank = 128
	b := randomMatrix(x.Dims[1], rank, cfg.Seed+1)
	c := randomMatrix(x.Dims[2], rank, cfg.Seed+2)

	results, err := ppa.Measure(csf, b, c, rank, cfg.Reps)
	if err != nil {
		return nil, err
	}

	// Simulated traffic uses a (possibly) smaller replica so the
	// line-by-line simulation stays fast.
	simX := x
	if x.NNZ() > 400_000 {
		simCfg := cfg
		simCfg.Scale = cfg.Scale * 400_000 / float64(x.NNZ())
		simX, _, err = Dataset(simCfg, "Poisson3")
		if err != nil {
			return nil, err
		}
	}
	simCSF, err := nmode.Build(simX, tensor.SPLATTModeOrder())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Table I: pressure points for SPLATT MTTKRP (Poisson3 shape, rank 128)",
		Note: fmt.Sprintf("tensor %v nnz=%d; times on this host, traffic simulated on POWER8-like 64KB L1 + 512KB L2",
			tensor.FormatDims(x.Dims), x.NNZ()),
		Header: []string{"Type", "Exec time (s)", "Relative", "Sim DRAM MB", "Description"},
	}
	for _, res := range results {
		tr, err := cachesim.MeasureTraffic(cachesim.POWER8(), func(h *cachesim.Hierarchy) error {
			return cachesim.TraceSPLATT(h, res.Variant.TraceOptions(rank), simCSF)
		})
		if err != nil {
			return nil, err
		}
		t.Add(
			fmt.Sprintf("%d", int(res.Variant)),
			fmt.Sprintf("%.4f", res.Seconds),
			fmt.Sprintf("%.3f", res.Relative),
			fmt.Sprintf("%.1f", float64(tr.MemBytes(-1))/1e6),
			res.Variant.Description(),
		)
	}
	return t, nil
}

// Table2 regenerates the data-set inventory, reporting both the paper
// scale and the scale this reproduction generates.
func Table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table II: synthetic and real-world data sets",
		Note:   "paper-scale columns are the published shapes; bench columns are what this reproduction generates",
		Header: []string{"Name", "Paper dims", "Paper NNZ", "Paper sparsity", "Bench dims", "Bench NNZ", "Bench sparsity", "Fibers"},
	}
	for _, name := range gen.Names() {
		x, spec, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		stats, err := tensor.ComputeStats(x)
		if err != nil {
			return nil, err
		}
		t.Add(
			name,
			tensor.FormatDims(spec.PaperDims),
			fmt.Sprintf("%.3g", float64(spec.PaperNNZ)),
			fmt.Sprintf("%.1e", spec.PaperSparsity()),
			tensor.FormatDims(stats.Dims),
			fmt.Sprintf("%d", stats.NNZ),
			fmt.Sprintf("%.1e", stats.Density),
			fmt.Sprintf("%d", stats.Fibers),
		)
	}
	return t, nil
}

func randomMatrix(rows, cols int, seed int64) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	state := uint64(seed)
	for i := range m.Data {
		m.Data[i] = float64(gen.SplitMix64(&state)%1000)/1000 + 0.001
	}
	return m
}
