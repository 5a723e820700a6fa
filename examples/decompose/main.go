// Decompose: run a full CP-ALS decomposition of a Netflix-shaped
// synthetic tensor (users x movies x time with community structure) and
// watch the fit improve — the end-to-end application whose inner loop
// is the MTTKRP kernel this library optimises.
//
//	go run ./examples/decompose
package main

import (
	"fmt"
	"log"
	"time"

	"spblock"
)

func main() {
	// Generate a small Netflix-like tensor from the Table II registry.
	spec, err := spblock.LookupDataset("Netflix")
	if err != nil {
		log.Fatal(err)
	}
	x, err := spec.GenerateAt(spblock.Dims{4000, 600, 80}, 150_000, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tensor:", spblock.ComputeStats(x))

	const rank = 16

	// Decompose twice: once with the baseline SPLATT kernel, once with
	// the blocked kernel, and compare per-sweep time. The fits match
	// because the kernels compute the same product.
	for _, plan := range []spblock.Plan{
		{Method: spblock.MethodSPLATT},
		{Method: spblock.MethodMBRankB, Grid: [3]int{1, 2, 1}, RankBlockCols: 16},
	} {
		kernel, err := plan.Options()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := spblock.CPALS(x, spblock.CPOptions{
			Rank:     rank,
			MaxIters: 20,
			Tol:      1e-6,
			Kernel:   kernel,
			Seed:     3,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		fmt.Printf("\n%s:\n", plan)
		for i, fit := range res.Fits {
			if i%5 == 0 || i == len(res.Fits)-1 {
				fmt.Printf("  sweep %2d: fit = %.5f\n", i+1, fit)
			}
		}
		fmt.Printf("  %d sweeps in %.2fs (%.3fs/sweep), converged=%v\n",
			res.Iters, elapsed, elapsed/float64(res.Iters), res.Converged)
		fmt.Printf("  component weights λ = %.3v\n", res.Lambda[:min(4, len(res.Lambda))])
	}

	// The same data under the Poisson (KL) model — appropriate for
	// count data like this, per the Chi & Kolda line of work the paper
	// draws its synthetic tensors from.
	fmt.Println("\nCP-APR (Poisson / KL multiplicative updates):")
	apr, err := spblock.CPAPR(x, spblock.APROptions{Rank: rank, MaxIters: 15, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	for i, kl := range apr.KL {
		if i%5 == 0 || i == len(apr.KL)-1 {
			fmt.Printf("  sweep %2d: KL objective = %.1f\n", i+1, kl)
		}
	}
	fmt.Printf("  converged=%v after %d sweeps\n", apr.Converged, apr.Iters)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
