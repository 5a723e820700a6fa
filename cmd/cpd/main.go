// Command cpd runs a CP-ALS decomposition on a FROSTT-style .tns file
// using any of the library's MTTKRP kernels, and reports the fit trace
// and per-iteration timing — the end-to-end application the paper's
// kernel optimisations accelerate.
//
// Usage:
//
//	cpd -in tensor.tns -rank 32 -method mbrankb -autotune
//	cpd -in tensor.tns -rank 16 -method splatt -iters 100
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spblock"
)

func main() {
	var (
		in       = flag.String("in", "", "input .tns file (required)")
		rank     = flag.Int("rank", 16, "decomposition rank R")
		method   = flag.String("method", "splatt", "kernel: coo|splatt|mb|rankb|mbrankb")
		autotune = flag.Bool("autotune", false, "run the Sec. V-C heuristic to choose block sizes")
		grid     = flag.String("grid", "", "explicit MB grid QxRxS (with -method mb|mbrankb)")
		bs       = flag.Int("bs", 0, "explicit RankB strip width in columns")
		iters    = flag.Int("iters", 50, "maximum ALS sweeps")
		tol      = flag.Float64("tol", 1e-5, "fit-change convergence tolerance")
		seed     = flag.Int64("seed", 1, "factor initialisation seed")
		workers  = flag.Int("workers", 0, "kernel parallelism (0 = GOMAXPROCS)")
		outPath  = flag.String("factors", "", "optional prefix to write factor matrices as CSV")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("need -in tensor.tns"))
	}

	x, err := spblock.LoadTNS(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s\n", spblock.ComputeStats(x))

	m, err := spblock.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	plan := spblock.Plan{Method: m, Grid: [3]int{1, 1, 1}, RankBlockCols: *bs, Workers: *workers}
	if *grid != "" {
		if plan.Grid, err = spblock.ParseGrid(*grid); err != nil {
			fatal(fmt.Errorf("bad -grid: %w", err))
		}
	}
	if *autotune {
		tuned, trials, err := spblock.Autotune(x, *rank, m, spblock.AutotuneOptions{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		plan = tuned
		fmt.Printf("autotune: %d trials -> %s\n", len(trials), plan)
	}
	fmt.Printf("plan: %s\n", plan)
	if kv := spblock.PlanKernel(plan, *rank); kv.Name != "" {
		fmt.Printf("kernel: %s (rank-strip register blocking, width %d)\n", kv.Name, kv.Width)
	}

	kernel, err := plan.Options()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := spblock.CPALS(x, spblock.CPOptions{
		Rank: *rank, MaxIters: *iters, Tol: *tol, Kernel: kernel, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	for i, fit := range res.Fits {
		fmt.Printf("sweep %3d: fit = %.6f\n", i+1, fit)
	}
	fmt.Printf("done: fit=%.6f sweeps=%d converged=%v time=%.2fs (%.3fs/sweep)\n",
		res.Fit(), res.Iters, res.Converged, elapsed.Seconds(),
		elapsed.Seconds()/float64(maxInt(res.Iters, 1)))

	if *outPath != "" {
		for n, f := range res.Factors {
			path := fmt.Sprintf("%s.mode%d.csv", *outPath, n+1)
			if err := writeCSV(path, f, res.Lambda, n == 0); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

func writeCSV(path string, m *spblock.Matrix, lambda []float64, withLambda bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if withLambda {
		for q, l := range lambda {
			if q > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprintf(f, "%g", l)
		}
		fmt.Fprintln(f)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for q, v := range row {
			if q > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprintf(f, "%g", v)
		}
		fmt.Fprintln(f)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpd:", err)
	os.Exit(1)
}
