// Higherorder: the paper notes its methodology "can trivially be
// extended to higher-order data" via the CSF format. This example runs
// the order-N MTTKRP on a 4-way tensor (user x product x word x time,
// an Amazon-reviews-like shape), with rank strips and multi-dimensional
// blocking, cross-checks every variant, and finishes on the unified
// engine: one pooled executor per mode, built once, reused
// allocation-free — the setup a decomposition loop wants.
//
//	go run ./examples/higherorder
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"spblock/internal/la"
	"spblock/internal/nmode"
)

func main() {
	dims := []int{3000, 800, 1200, 24}
	const nnz = 200_000
	const rank = 32

	rng := rand.New(rand.NewSource(9))
	x := nmode.NewTensor(dims, nnz)
	coords := make([]nmode.Index, len(dims))
	for p := 0; p < nnz; p++ {
		for m, d := range dims {
			coords[m] = nmode.Index(rng.Intn(d))
		}
		x.Append(coords, rng.Float64())
	}
	if _, err := x.Dedup(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("order-%d tensor %v, nnz=%d\n", x.Order(), x.Dims, x.NNZ())

	factors := make([]*la.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = la.NewMatrix(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
	}

	// Mode-0 MTTKRP through the CSF tree: the output mode is the root,
	// remaining modes ordered short-to-long beneath it.
	order := nmode.DefaultModeOrder(dims, 0)
	fmt.Printf("CSF mode order: %v (root = output mode)\n", order)
	csf, err := nmode.Build(x, order)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSF levels: %d/%d/%d/%d nodes, %.1f MB\n",
		csf.NumNodes(0), csf.NumNodes(1), csf.NumNodes(2), csf.NumNodes(3),
		float64(csf.MemoryBytes())/1e6)

	var reference *la.Matrix
	for _, tc := range []struct {
		name string
		run  func(out *la.Matrix) error
	}{
		{"plain tree walk", func(out *la.Matrix) error {
			return nmode.MTTKRP(csf, factors, out, nmode.Options{Workers: 1})
		}},
		{"rank strips (16 cols, packed)", func(out *la.Matrix) error {
			return nmode.MTTKRP(csf, factors, out, nmode.Options{RankBlockCols: 16, Workers: 1})
		}},
		{"MB 2x2x2x2 + rank strips", func(out *la.Matrix) error {
			bt, err := nmode.BuildBlocked(x, []int{2, 2, 2, 2}, order)
			if err != nil {
				return err
			}
			return bt.MTTKRP(factors, out, nmode.Options{RankBlockCols: 16})
		}},
	} {
		out := la.NewMatrix(dims[0], rank)
		start := time.Now()
		if err := tc.run(out); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		if reference == nil {
			reference = out
			fmt.Printf("%-32s %.3fs  |A|_F = %.4f\n", tc.name, elapsed, out.FrobeniusNorm())
			continue
		}
		fmt.Printf("%-32s %.3fs  max diff = %.2e\n", tc.name, elapsed, out.MaxAbsDiff(reference))
	}
	fmt.Println("all order-4 variants agree ✓")

	// The unified engine: every mode's executor built once (what
	// CP-ALS does under the hood), then each mode product runs against
	// pooled workspaces. The second pass is the steady state — no
	// allocations, no tree rebuilds.
	eng, err := nmode.NewEngine(x, nmode.Options{RankBlockCols: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunified engine (nmode.NewEngine, rank strips):\n")
	outs := make([]*la.Matrix, len(dims))
	for m, d := range dims {
		outs[m] = la.NewMatrix(d, rank)
	}
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for m := range dims {
			if err := eng.Run(m, factors, outs[m]); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  pass %d: all %d mode products in %.3fs\n",
			pass+1, len(dims), time.Since(start).Seconds())
	}
	if d := outs[0].MaxAbsDiff(reference); d > 1e-9 {
		log.Fatalf("engine mode-0 product differs by %v", d)
	}
	fmt.Println("engine agrees with the one-shot kernels ✓")
}
