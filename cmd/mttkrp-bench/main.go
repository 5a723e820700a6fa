// Command mttkrp-bench times the MTTKRP kernel family on a tensor —
// either a FROSTT .tns file or a named Table II generator — the way
// splatt --bench does, reporting time, GFLOP/s and speedup over the
// SPLATT baseline, with optional autotuned block sizes.
//
// Third-order tensors run the full order-3 plan table. Higher-order
// tensors (an order-N .tns, or the synthetic Poisson4 data set) run the
// unified N-mode engine's configuration ladder instead.
//
// Usage:
//
//	mttkrp-bench -dataset Poisson2 -rank 128
//	mttkrp-bench -dataset Poisson4 -rank 64
//	mttkrp-bench -in tensor.tns -rank 64 -autotune -reps 5
//
// The command reports; it gates nothing. CI's perf gates compare
// kernels timed in the same process instead (DESIGN.md §8.3).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"spblock"
	"spblock/internal/bench"
	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func main() {
	var (
		in       = flag.String("in", "", "input .tns file (any order >= 2)")
		dataset  = flag.String("dataset", "", "Table II data set name, or Poisson4, instead of -in")
		scale    = flag.Float64("scale", 1.0, "scale for -dataset")
		rank     = flag.Int("rank", 64, "decomposition rank R")
		reps     = flag.Int("reps", 3, "timed repetitions (best kept)")
		workers  = flag.Int("workers", 0, "kernel parallelism (0 = GOMAXPROCS)")
		autotune = flag.Bool("autotune", true, "tune MB/RankB block sizes (Sec. V-C heuristic)")
		seed     = flag.Int64("seed", 42, "generator/factor seed")
		widths   = flag.String("widths", "", `sweep rank-strip widths as extra RankB plans: comma-separated list, or "all" for every registered kernel width`)
	)
	flag.Parse()

	nt, err := loadTensor(*in, *dataset, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	sweep, err := parseWidths(*widths, *rank)
	if err != nil {
		fatal(err)
	}
	if nt.Order() != 3 {
		benchN(nt, *rank, *reps, *workers, *seed, sweep)
		return
	}
	bench3(nt, *rank, *reps, *workers, *autotune, *seed, sweep)
}

func bench3(x *nmode.Tensor, rank, reps, workers int, autotune bool, seed int64, sweep []int) {
	profile, err := tensor.ProfileTensor(x)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tensor: %s\n", profile)
	fmt.Printf("rank:   %d   (factor B is %.1f MB)\n\n",
		rank, float64(x.Dims[1]*rank*8)/1e6)

	// An MB executor hands its workers root layers, Grid[0] of them, so
	// the untuned MB grids cut mode 0 once per worker, and at least
	// twice; the row label (the plan) shows the grid.
	nw := workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	grid := [3]int{max(nw, 2), 2, 1}
	plans := []spblock.Plan{
		{Method: spblock.MethodCOO, Workers: workers},
		{Method: spblock.MethodSPLATT, Workers: workers},
		{Method: spblock.MethodMB, Grid: grid, Workers: workers},
		{Method: spblock.MethodRankB, RankBlockCols: min(64, rank), Workers: workers},
		{Method: spblock.MethodMBRankB, Grid: grid, RankBlockCols: min(64, rank), Workers: workers},
	}
	if autotune {
		opts := spblock.AutotuneOptions{Trials: 1, Seed: seed, Workers: workers}
		for i, p := range plans {
			if p.Method == spblock.MethodCOO || p.Method == spblock.MethodSPLATT {
				continue
			}
			tuned, _, err := core.Autotune(x, rank, p.Method, opts)
			if err != nil {
				fatal(err)
			}
			plans[i] = tuned
			plans[i].Workers = workers
		}
	}

	b := randomMatrix(x.Dims[1], rank, seed+1)
	c := randomMatrix(x.Dims[2], rank, seed+2)
	out := spblock.NewMatrix(x.Dims[0], rank)
	factors := []*spblock.Matrix{nil, b, c}
	stats := profile.Stats

	var baseline float64
	// run times plan and returns its best seconds, GFLOP/s and kernel
	// variant.
	run := func(plan spblock.Plan) (float64, float64, string) {
		exec, err := core.NewEngine(x, plan, 0)
		if err != nil {
			fatal(err)
		}
		if err := exec.Run(0, factors, out); err != nil { // warm-up
			fatal(err)
		}
		sec := bench.TimeBest(reps, func() {
			if err := exec.Run(0, factors, out); err != nil {
				panic(err)
			}
		})
		if plan.Method == spblock.MethodSPLATT {
			baseline = sec
		}
		met, err := exec.Metrics(0)
		if err != nil {
			fatal(err)
		}
		return sec, bench.GFLOPS(int64(stats.NNZ), int64(stats.Fibers), rank, sec), met.Snapshot().Kernel
	}

	fmt.Printf("%-36s %-8s %10s %9s %9s\n", "plan", "kernel", "time (s)", "GFLOP/s", "speedup")
	for _, plan := range plans {
		sec, gf, kernel := run(plan)
		fmt.Printf("%-36s %-8s %10.4f %9.2f %9s\n", plan, kernelLabel(kernel), sec, gf, speedup(baseline, sec))
	}
	if len(sweep) > 0 {
		fmt.Printf("\nrank-strip width sweep (rankb):\n")
		fmt.Printf("%-10s %-8s %14s %9s\n", "width", "kernel", "ns/run", "GFLOP/s")
		for _, w := range sweep {
			sec, gf, kernel := run(spblock.Plan{Method: spblock.MethodRankB, RankBlockCols: w, Workers: workers})
			fmt.Printf("%-10d %-8s %14d %9.2f\n", w, kernelLabel(kernel), int64(sec*1e9), gf)
		}
	}
}

// speedup renders baseline/sec for the console table ("-" before the
// baseline has run).
func speedup(baseline, sec float64) string {
	if baseline <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", baseline/sec)
}

// kernelLabel renders a plan's kernel variant for the console table
// ("-" for plans that never resolve one).
func kernelLabel(k string) string {
	if k == "" {
		return "-"
	}
	return k
}

// parseWidths expands the -widths flag: "all" is every registered
// kernel width that fits the rank (plus the rank itself, the whole-rank
// strip); otherwise a comma-separated list of positive strip widths,
// each capped at the rank.
func parseWidths(s string, rank int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		var ws []int
		for _, w := range spblock.KernelWidths() {
			if w <= rank {
				ws = append(ws, w)
			}
		}
		if len(ws) == 0 || ws[len(ws)-1] != rank {
			ws = append(ws, rank)
		}
		return ws, nil
	}
	var ws []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -widths entry %q", f)
		}
		if w > rank {
			w = rank
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// benchN times the unified order-N engine's configuration ladder on a
// higher-order tensor: plain CSF, rank strips, a multi-dimensional
// block grid, and the combination — each a pooled mode-0 executor.
func benchN(t *nmode.Tensor, rank, reps, workers int, seed int64, sweep []int) {
	n := t.Order()
	fmt.Printf("tensor: %v nnz=%d (order %d)\n", t.Dims, t.NNZ(), n)
	fmt.Printf("rank:   %d\n\n", rank)

	grid := make([]int, n)
	for m := range grid {
		grid[m] = 1
	}
	// Split the longest non-output mode so the blocked rows exercise a
	// real grid without changing the root-mode layer structure.
	long := 1
	for m := 2; m < n; m++ {
		if t.Dims[m] > t.Dims[long] {
			long = m
		}
	}
	grid[long] = 2

	rows := []struct {
		name string
		opts spblock.OptionsN
	}{
		{"csf-n", spblock.OptionsN{Workers: workers}},
		{"csf-n+rankb", spblock.OptionsN{RankBlockCols: min(64, rank), Workers: workers}},
		{"csf-n+mb", spblock.OptionsN{Grid: grid, Workers: workers}},
		{"csf-n+mb+rankb", spblock.OptionsN{Grid: grid, RankBlockCols: min(64, rank), Workers: workers}},
	}
	for _, w := range sweep {
		rows = append(rows, struct {
			name string
			opts spblock.OptionsN
		}{fmt.Sprintf("csf-n+rankb[bs=%d]", w), spblock.OptionsN{RankBlockCols: w, Workers: workers}})
	}

	factors := make([]*spblock.Matrix, n)
	for m := 1; m < n; m++ {
		factors[m] = randomMatrix(t.Dims[m], rank, seed+int64(m))
	}
	out := spblock.NewMatrix(t.Dims[0], rank)

	var baseline float64
	fmt.Printf("%-36s %-8s %10s %9s %9s\n", "plan", "kernel", "time (s)", "GFLOP/s", "speedup")
	for i, row := range rows {
		exec, err := spblock.NewExecutorN(t, 0, row.opts)
		if err != nil {
			fatal(err)
		}
		if err := exec.Run(factors, out); err != nil { // warm-up
			fatal(err)
		}
		sec := bench.TimeBest(reps, func() {
			if err := exec.Run(factors, out); err != nil {
				panic(err)
			}
		})
		// The order-N kernel does ~(order-1) fused multiply-adds of
		// width R per nonzero; reuse the paper's 2R(nnz+fibers) model
		// with the fiber term folded into the nnz walk.
		gf := float64(n-1) * float64(rank) * float64(t.NNZ()) / sec / 1e9
		if i == 0 {
			baseline = sec
		}
		fmt.Printf("%-36s %-8s %10.4f %9.2f %9s\n", row.name, kernelLabel(exec.Metrics().Snapshot().Kernel), sec, gf, speedup(baseline, sec))
	}
}

func loadTensor(in, dataset string, scale float64, seed int64) (*nmode.Tensor, error) {
	switch {
	case in != "":
		return spblock.LoadTNSN(in)
	case dataset == "Poisson4":
		// Order-4 synthetic row: the Poisson1 shape with a short fourth
		// mode, sized so the default run finishes in seconds.
		d := []int{256, 256, 256, 16}
		nnz := 1_000_000
		for m := range d {
			if v := int(float64(d[m]) * scale); v >= 8 {
				d[m] = v
			} else {
				d[m] = 8
			}
		}
		if v := int(float64(nnz) * scale); v >= 100 {
			nnz = v
		} else {
			nnz = 100
		}
		return gen.PoissonN(gen.PoissonNParams{Dims: d, Events: nnz + nnz/8}, seed)
	case dataset != "":
		spec, err := gen.Lookup(dataset)
		if err != nil {
			return nil, err
		}
		if scale == 1 {
			return spec.Generate(seed)
		}
		d := slices.Clone(spec.BenchDims)
		for m := range d {
			d[m] = max(int(float64(d[m])*scale), 8)
		}
		return spec.GenerateAt(d, int(float64(spec.BenchNNZ)*scale), seed)
	default:
		return nil, fmt.Errorf("need -in or -dataset")
	}
}

func randomMatrix(rows, cols int, seed int64) *spblock.Matrix {
	m := spblock.NewMatrix(rows, cols)
	state := uint64(seed)
	for i := range m.Data {
		m.Data[i] = float64(gen.SplitMix64(&state)%1000)/1000 + 0.001
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mttkrp-bench:", err)
	os.Exit(1)
}
