// Quickstart: build a small sparse tensor, run the mode-1 MTTKRP with
// every kernel the library provides, and confirm they all agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spblock"
)

func main() {
	// A 200x300x150 tensor with 20k random nonzeros.
	dims := spblock.Dims{200, 300, 150}
	rng := rand.New(rand.NewSource(7))
	x := spblock.NewTensor(dims, 20_000)
	for p := 0; p < 20_000; p++ {
		x.Append(
			int32(rng.Intn(dims[0])),
			int32(rng.Intn(dims[1])),
			int32(rng.Intn(dims[2])),
			rng.Float64(),
		)
	}
	if _, err := x.Dedup(); err != nil { // merge duplicate coordinates
		log.Fatal(err)
	}
	fmt.Println("tensor:", spblock.ComputeStats(x))

	// Random rank-32 factor matrices B (J x R) and C (K x R).
	const rank = 32
	b := spblock.NewMatrix(dims[1], rank)
	c := spblock.NewMatrix(dims[2], rank)
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	for i := range c.Data {
		c.Data[i] = rng.Float64()
	}

	// Run A = X(1) · (B ⊙ C) with each kernel.
	plans := []spblock.Plan{
		{Method: spblock.MethodCOO},
		{Method: spblock.MethodSPLATT},
		{Method: spblock.MethodRankB, RankBlockCols: 16},
		{Method: spblock.MethodMB, Grid: [3]int{2, 4, 2}},
		{Method: spblock.MethodMBRankB, Grid: [3]int{2, 4, 2}, RankBlockCols: 16},
	}
	var reference *spblock.Matrix
	for _, plan := range plans {
		out := spblock.NewMatrix(dims[0], rank)
		if err := spblock.MTTKRP(x, b, c, out, plan); err != nil {
			log.Fatalf("%v: %v", plan, err)
		}
		if reference == nil {
			reference = out
			fmt.Printf("%-40s |A|_F = %.6f\n", plan, out.FrobeniusNorm())
			continue
		}
		fmt.Printf("%-40s max diff vs COO = %.2e\n", plan, out.MaxAbsDiff(reference))
	}
	fmt.Println("all kernels agree ✓")
}
