package spblock_test

import (
	"fmt"

	"spblock"
)

// ExampleMTTKRP computes the mode-1 MTTKRP of the paper's Figure 1
// tensor against rank-2 factors.
func ExampleMTTKRP() {
	// The 3x3x3 tensor of Figure 1a (0-based coordinates).
	x := spblock.NewTensor(spblock.Dims{3, 3, 3}, 7)
	entries := [][4]int{
		{0, 0, 0, 5}, {0, 1, 1, 3}, {0, 1, 2, 1},
		{1, 0, 2, 2}, {1, 1, 1, 9}, {1, 2, 2, 7}, {2, 0, 0, 9},
	}
	for _, e := range entries {
		x.Append(int32(e[0]), int32(e[1]), int32(e[2]), float64(e[3]))
	}

	b := spblock.NewMatrix(3, 2) // mode-2 factor, rows 1,2,3
	c := spblock.NewMatrix(3, 2) // mode-3 factor, rows 10,20,30
	b.FillFunc(func(i, j int) float64 { return float64(i + 1) })
	c.FillFunc(func(i, j int) float64 { return float64(10 * (i + 1)) })

	out := spblock.NewMatrix(3, 2)
	if err := spblock.MTTKRP(x, b, c, out, spblock.Plan{Method: spblock.MethodMBRankB,
		Grid: [3]int{1, 3, 1}, RankBlockCols: 16}); err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		fmt.Printf("A[%d] = %v\n", i, out.Row(i))
	}
	// Output:
	// A[0] = [230 230]
	// A[1] = [1050 1050]
	// A[2] = [90 90]
}

// ExampleComputeStats reports a tensor's shape statistics in the
// vocabulary of the paper's Table II.
func ExampleComputeStats() {
	x := spblock.NewTensor(spblock.Dims{4, 8, 2}, 4)
	x.Append(0, 0, 0, 1)
	x.Append(0, 1, 0, 1) // same mode-2 fiber as the first entry
	x.Append(0, 0, 1, 1)
	x.Append(3, 7, 1, 1)
	s := spblock.ComputeStats(x)
	fmt.Printf("nnz=%d fibers=%d avgFiber=%.2f\n", s.NNZ, s.Fibers, s.AvgFiberLength)
	// Output:
	// nnz=4 fibers=3 avgFiber=1.33
}

// ExampleMultiExecutor shows the intended production loop: preprocess
// once, run many times (as CP-ALS does). Mode 0 alone serves the
// mode-1 product.
func ExampleMultiExecutor() {
	x := spblock.NewTensor(spblock.Dims{2, 2, 2}, 2)
	x.Append(0, 0, 0, 2)
	x.Append(1, 1, 1, 3)
	exec, err := spblock.NewMultiExecutor(x, spblock.Plan{Method: spblock.MethodSPLATT}, 0)
	if err != nil {
		panic(err)
	}
	b := spblock.NewMatrix(2, 1)
	c := spblock.NewMatrix(2, 1)
	b.FillFunc(func(i, j int) float64 { return 1 })
	c.FillFunc(func(i, j int) float64 { return 10 })
	out := spblock.NewMatrix(2, 1)
	for iter := 0; iter < 3; iter++ { // e.g. ALS sweeps
		if err := exec.Run(0, [3]*spblock.Matrix{nil, b, c}, out); err != nil {
			panic(err)
		}
	}
	fmt.Println(out.Row(0), out.Row(1))
	// Output:
	// [20] [30]
}
