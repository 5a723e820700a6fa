package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/sched"
	"spblock/internal/tensor"
)

func randMatrix(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randCOO(rng *rand.Rand, dims []int, nnz int) *nmode.Tensor {
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.NormFloat64())
	}
	tensor.Dedup(t)
	return t
}

func TestMethodAndPlanStrings(t *testing.T) {
	for m, want := range map[Method]string{
		MethodCOO: "COO", MethodSPLATT: "SPLATT", MethodMB: "MB",
		MethodRankB: "RankB", MethodMBRankB: "MB+RankB",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method should render")
	}
	p := Plan{Method: MethodMBRankB, Grid: [3]int{2, 3, 4}, RankBlockCols: 32}
	if s := p.String(); !strings.Contains(s, "2x3x4") || !strings.Contains(s, "bs=32") {
		t.Fatalf("Plan.String = %q", s)
	}
}

// TestSliceShares covers the slice partition the executors now obtain
// through sched.Shares with the CSF nnz-cumulative weight function —
// the same invariants the old in-package sliceShares guaranteed.
func TestSliceShares(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randCOO(rng, []int{50, 20, 20}, 2000)
	csf, err := nmode.Build(x, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	cumOf := func(c *nmode.CSF) func(int) int64 {
		return func(i int) int64 { return int64(c.Ptr[1][c.Ptr[0][i+1]]) }
	}
	for _, workers := range []int{1, 2, 3, 7, 100} {
		shares := sched.Shares(csf.NumNodes(0), workers, cumOf(csf))
		if len(shares) == 0 {
			t.Fatal("no shares")
		}
		// Coverage: contiguous, disjoint, spanning [0, numSlices).
		if shares[0][0] != 0 || shares[len(shares)-1][1] != csf.NumNodes(0) {
			t.Fatalf("workers=%d: shares %v do not span", workers, shares)
		}
		for s := 1; s < len(shares); s++ {
			if shares[s][0] != shares[s-1][1] {
				t.Fatalf("workers=%d: gap between shares %v", workers, shares)
			}
		}
		for _, sh := range shares {
			if sh[0] >= sh[1] {
				t.Fatalf("workers=%d: empty share %v", workers, sh)
			}
		}
		if len(shares) > workers {
			t.Fatalf("more shares than workers: %d > %d", len(shares), workers)
		}
	}
	// Empty tensor: no shares.
	emptyCSF, _ := nmode.Build(nmode.NewTensor([]int{3, 3, 3}, 0), tensor.SPLATTModeOrder())
	if s := sched.Shares(emptyCSF.NumNodes(0), 4, cumOf(emptyCSF)); s != nil {
		t.Fatalf("empty tensor shares = %v", s)
	}
}

// The MB layout the plans run and the cache simulator traces is
// nmode.BuildBlocked's tree in SPLATT order: its flat block ids nest
// (bi, bj, bk) row-major, and each block is a SPLATT tree.
func TestBuildBlockedStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{12, 9, 15}
	x := randCOO(rng, dims, 300)
	bt, err := nmode.BuildBlocked(x, []int{3, 3, 5}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	if bt.NNZ() != x.NNZ() {
		t.Fatalf("blocked nnz %d != %d", bt.NNZ(), x.NNZ())
	}
	if !reflect.DeepEqual(bt.BlockDims, []int{4, 3, 3}) {
		t.Fatalf("block dims = %v", bt.BlockDims)
	}
	// Every nonzero lands in the block its coordinates dictate, with
	// valid CSF structure and sorted content.
	total := 0
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 3; bj++ {
			for bk := 0; bk < 5; bk++ {
				blk := bt.Blocks[(bi*3+bj)*5+bk]
				if blk == nil {
					continue
				}
				if err := blk.Validate(); err != nil {
					t.Fatalf("block (%d,%d,%d): %v", bi, bj, bk, err)
				}
				if err := tensor.CheckSPLATT(blk); err != nil {
					t.Fatalf("block (%d,%d,%d): %v", bi, bj, bk, err)
				}
				back := blk.ToTensor()
				if perm, err := back.SortPerm(tensor.SPLATTModeOrder()); err != nil || perm != nil {
					t.Fatalf("block (%d,%d,%d) not in fiber order", bi, bj, bk)
				}
				total += back.NNZ()
				for p := 0; p < back.NNZ(); p++ {
					if int(back.Idx[0][p])/4 != bi || int(back.Idx[1][p])/3 != bj || int(back.Idx[2][p])/3 != bk {
						t.Fatalf("entry (%d,%d,%d) in wrong block (%d,%d,%d)",
							back.Idx[0][p], back.Idx[1][p], back.Idx[2][p], bi, bj, bk)
					}
				}
			}
		}
	}
	if total != x.NNZ() {
		t.Fatalf("blocks hold %d nonzeros, tensor has %d", total, x.NNZ())
	}
}

// Each block is the SPLATT tree of exactly its own nonzeros — the same
// structure nmode.Build gives the block's sub-tensor — with every
// array exactly sized.
func TestBuildBlockedBlocksAreExactCSFs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randCOO(rng, []int{13, 10, 11}, 900)
	bt, err := nmode.BuildBlocked(x, []int{3, 2, 4}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	for id, blk := range bt.Blocks {
		sub := nmode.NewTensor(x.Dims, 0)
		for p := 0; p < x.NNZ(); p++ {
			bi, bj, bk := int(x.Idx[0][p])/bt.BlockDims[0], int(x.Idx[1][p])/bt.BlockDims[1], int(x.Idx[2][p])/bt.BlockDims[2]
			if (bi*bt.Grid[1]+bj)*bt.Grid[2]+bk == id {
				sub.Append([]nmode.Index{x.Idx[0][p], x.Idx[1][p], x.Idx[2][p]}, x.Val[p])
			}
		}
		if blk == nil {
			if sub.NNZ() != 0 {
				t.Fatalf("block %d nil but holds %d nonzeros", id, sub.NNZ())
			}
			continue
		}
		want, err := nmode.Build(sub, tensor.SPLATTModeOrder())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(blk, want) {
			t.Fatalf("block %d differs from BuildCSF of its nonzeros", id)
		}
		for name, a := range map[string][]int32{
			"slice ids": blk.ID[0], "slice pointers": blk.Ptr[0], "fiber ids": blk.ID[1],
			"fiber pointers": blk.Ptr[1], "leaf ids": blk.ID[2],
		} {
			if len(a) != cap(a) {
				t.Fatalf("block %d %s: len %d cap %d", id, name, len(a), cap(a))
			}
		}
		if len(blk.Val) != cap(blk.Val) {
			t.Fatalf("block %d Val: len %d cap %d", id, len(blk.Val), cap(blk.Val))
		}
	}
}

func TestBuildBlockedOverheadGrowsWithGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randCOO(rng, []int{40, 40, 40}, 4000)
	flat, err := nmode.BuildBlocked(x, []int{1, 1, 1}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	fine, err := nmode.BuildBlocked(x, []int{8, 8, 8}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	memoryBytes := func(bt *nmode.BlockedTensor) int64 {
		var s int64
		for _, b := range bt.Blocks {
			if b != nil {
				s += b.MemoryBytes()
			}
		}
		return s
	}
	if memoryBytes(fine) <= memoryBytes(flat) {
		t.Fatalf("fine grid memory %d not above flat %d — fiber splitting must cost",
			memoryBytes(fine), memoryBytes(flat))
	}
	if flat.NumBlocks() != 1 {
		t.Fatalf("flat grid has %d blocks", flat.NumBlocks())
	}
}

func TestBuildBlockedDoesNotMutateInput(t *testing.T) {
	x := nmode.NewTensor([]int{4, 4, 4}, 0)
	x.Append([]nmode.Index{3, 3, 3}, 1)
	x.Append([]nmode.Index{0, 0, 0}, 2) // unsorted
	if _, err := nmode.BuildBlocked(x, []int{2, 2, 2}, tensor.SPLATTModeOrder()); err != nil {
		t.Fatal(err)
	}
	if x.Idx[0][0] != 3 {
		t.Fatal("BuildBlocked reordered the caller's tensor")
	}
}

func TestReferenceRefusesHugeShapes(t *testing.T) {
	x := nmode.NewTensor([]int{2, 100000, 100000}, 0)
	x.Append([]nmode.Index{0, 0, 0}, 1)
	b := la.NewMatrix(100000, 64)
	c := la.NewMatrix(100000, 64)
	out := la.NewMatrix(2, 64)
	if err := Reference(x, b, c, out); err == nil {
		t.Fatal("Reference accepted an enormous Khatri-Rao product")
	}
}
