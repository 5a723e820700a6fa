package nmode

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// oracleTree builds the CSF of t under mo without the Builder:
// sort.SliceStable over positions by coordinates in mode order, then a
// naive emitter that opens a node at every level from the first one
// whose coordinate differs from the predecessor's (a duplicate opens
// only a leaf).
func oracleTree(t *Tensor, mo []int) *CSF {
	n := t.Order()
	pos := make([]int, t.NNZ())
	for p := range pos {
		pos[p] = p
	}
	sort.SliceStable(pos, func(a, b int) bool {
		for _, m := range mo {
			if x, y := t.Idx[m][pos[a]], t.Idx[m][pos[b]]; x != y {
				return x < y
			}
		}
		return false
	})
	c := &CSF{Dims: t.Dims, ModeOrder: mo, ID: make([][]Index, n), Ptr: make([][]int32, n-1)}
	for i, p := range pos {
		start := 0
		if i > 0 {
			start = n - 1
			for d, m := range mo {
				if t.Idx[m][p] != t.Idx[m][pos[i-1]] {
					start = d
					break
				}
			}
		}
		for d := start; d < n; d++ {
			if d < n-1 {
				c.Ptr[d] = append(c.Ptr[d], int32(len(c.ID[d+1])))
			}
			c.ID[d] = append(c.ID[d], t.Idx[mo[d]][p])
		}
		c.Val = append(c.Val, t.Val[p])
	}
	for d := range c.Ptr {
		c.Ptr[d] = append(c.Ptr[d], int32(len(c.ID[d+1])))
	}
	return c
}

// sameTree reports the first field where a and b differ; values are
// compared bit for bit.
func sameTree(a, b *CSF) error {
	if !slices.Equal(a.Dims, b.Dims) || !slices.Equal(a.ModeOrder, b.ModeOrder) {
		return fmt.Errorf("dims/mode order %v/%v vs %v/%v", a.Dims, a.ModeOrder, b.Dims, b.ModeOrder)
	}
	if len(a.ID) != len(b.ID) || len(a.Ptr) != len(b.Ptr) {
		return fmt.Errorf("level counts %d/%d vs %d/%d", len(a.ID), len(a.Ptr), len(b.ID), len(b.Ptr))
	}
	for d := range a.ID {
		if !slices.Equal(a.ID[d], b.ID[d]) {
			return fmt.Errorf("level %d ids %v vs %v", d, a.ID[d], b.ID[d])
		}
	}
	for d := range a.Ptr {
		if !slices.Equal(a.Ptr[d], b.Ptr[d]) {
			return fmt.Errorf("level %d pointers %v vs %v", d, a.Ptr[d], b.Ptr[d])
		}
	}
	if len(a.Val) != len(b.Val) {
		return fmt.Errorf("%d values vs %d", len(a.Val), len(b.Val))
	}
	for p := range a.Val {
		if math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			return fmt.Errorf("value %d: %v vs %v", p, a.Val[p], b.Val[p])
		}
	}
	return nil
}

// exactlySized reports a level array whose capacity exceeds its length.
func exactlySized(c *CSF) error {
	for d, ids := range c.ID {
		if cap(ids) != len(ids) {
			return fmt.Errorf("level %d ids: cap %d, len %d", d, cap(ids), len(ids))
		}
	}
	for d, ptr := range c.Ptr {
		if cap(ptr) != len(ptr) {
			return fmt.Errorf("level %d pointers: cap %d, len %d", d, cap(ptr), len(ptr))
		}
	}
	if cap(c.Val) != len(c.Val) {
		return fmt.Errorf("values: cap %d, len %d", cap(c.Val), len(c.Val))
	}
	return nil
}

// dupTensor draws nnz random entries, about one in five repeating an
// earlier coordinate with a different value.
func dupTensor(rng *rand.Rand, dims []int, nnz int) *Tensor {
	t := NewTensor(dims, nnz)
	coords := make([]Index, len(dims))
	for p := 0; p < nnz; p++ {
		if p > 0 && rng.Intn(5) == 0 {
			t.Append(t.Coord(rng.Intn(p), coords), rng.NormFloat64())
			continue
		}
		for m, d := range dims {
			coords[m] = Index(rng.Intn(d))
		}
		t.Append(coords, rng.NormFloat64())
	}
	return t
}

// modeOrders returns every mode order of an order-3 tensor, and for
// higher orders each DefaultModeOrder plus one shuffled order.
func modeOrders(rng *rand.Rand, dims []int) [][]int {
	if len(dims) == 3 {
		return [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	}
	var out [][]int
	for m := range dims {
		out = append(out, DefaultModeOrder(dims, m))
	}
	return append(out, rng.Perm(len(dims)))
}

func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		dims []int
		nnz  int
	}{
		{[]int{7, 6, 5}, 300},
		{[]int{5, 4, 6, 3}, 400},
		{[]int{1, 5, 1}, 20},
		{[]int{3, 1, 1, 4}, 30},
		{[]int{1, 1, 1}, 6},
		{[]int{4, 4, 4}, 0},
		{[]int{3, 2, 5, 2}, 0},
		{[]int{4, 4, 4}, 1},
	}
	for _, tc := range cases {
		x := dupTensor(rng, tc.dims, tc.nnz)
		for _, mo := range modeOrders(rng, tc.dims) {
			want := oracleTree(x, mo)
			got, err := Build(x, mo)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("dims %v nnz %d order %v: %v", tc.dims, tc.nnz, mo, err)
			}
			if err := exactlySized(got); err != nil {
				t.Fatalf("dims %v order %v: %v", tc.dims, mo, err)
			}
			// Already in mode order: the sort is skipped and the
			// leaves are copied, with the same result.
			sorted := x.Clone()
			if err := sorted.SortByModes(mo); err != nil {
				t.Fatal(err)
			}
			got, err = Build(sorted, mo)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("dims %v order %v, sorted input: %v", tc.dims, mo, err)
			}
			if err := exactlySized(got); err != nil {
				t.Fatalf("dims %v order %v, sorted input: %v", tc.dims, mo, err)
			}
		}
	}
}

// TestWideSpanSortMatchesOracle builds trees over modes whose spans
// outgrow the counting sort's buckets (wider than both 2^16 and the
// nonzero count), which sort in two 16-bit digits, and checks them
// against the stable-sort oracle. Dedup of nonzeros 2^24 apart must
// stay within a few MiB: the one-pass sort allocated 64 MiB of buckets
// there, and 8 GiB at a 2^31 span. The spans stay at 2^24 so that a
// regression to the one-pass sort fails here without exhausting memory.
func TestWideSpanSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range [][]int{{1<<24 + 3, 70000, 5}, {3, 1 << 20, 1<<24 + 5, 2}} {
		x := dupTensor(rng, dims, 400)
		for _, mo := range modeOrders(rng, dims) {
			got, err := Build(x, mo)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, oracleTree(x, mo)); err != nil {
				t.Fatalf("dims %v order %v: %v", dims, mo, err)
			}
		}
	}

	x := NewTensor([]int{1<<24 + 1, 2}, 0)
	x.Append([]Index{1 << 24, 1}, 1)
	x.Append([]Index{0, 0}, 2)
	x.Append([]Index{1 << 24, 1}, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged, err := x.Dedup()
	runtime.ReadMemStats(&after)
	if err != nil || merged != 1 {
		t.Fatalf("Dedup: merged %d, %v; want 1", merged, err)
	}
	if !slices.Equal(x.Idx[0], []Index{0, 1 << 24}) || !slices.Equal(x.Val, []float64{2, 4}) {
		t.Fatalf("Dedup: idx %v val %v", x.Idx, x.Val)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<20 {
		t.Errorf("Dedup of 3 nonzeros spanning 2^24 allocated %d bytes", b)
	}
}

func TestBuildRejectsBadModeOrder(t *testing.T) {
	x := dupTensor(rand.New(rand.NewSource(1)), []int{3, 3, 3}, 10)
	for _, mo := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if _, err := Build(x, mo); err == nil {
			t.Fatalf("mode order %v accepted", mo)
		}
		if _, err := BuildBlocked(x, []int{1, 1, 1}, mo); err == nil {
			t.Fatalf("blocked mode order %v accepted", mo)
		}
	}
}

// blockSub collects the nonzeros of flat block id, in input order.
func blockSub(x *Tensor, bt *BlockedTensor, id int) *Tensor {
	sub := NewTensor(x.Dims, 0)
	coords := make([]Index, x.Order())
	for p := 0; p < x.NNZ(); p++ {
		b := 0
		for m := range x.Dims {
			b = b*bt.Grid[m] + int(x.Idx[m][p])/bt.BlockDims[m]
		}
		if b == id {
			sub.Append(x.Coord(p, coords), x.Val[p])
		}
	}
	return sub
}

// checkBlocksMatchBuild asserts every block of bt equals Build over that
// block's nonzeros and is exactly sized, and that empty blocks are nil.
func checkBlocksMatchBuild(x *Tensor, bt *BlockedTensor) error {
	for id, blk := range bt.Blocks {
		sub := blockSub(x, bt, id)
		if blk == nil {
			if sub.NNZ() != 0 {
				return fmt.Errorf("block %d is nil but holds %d nonzeros", id, sub.NNZ())
			}
			continue
		}
		want, err := Build(sub, bt.ModeOrder)
		if err != nil {
			return err
		}
		if err := sameTree(blk, want); err != nil {
			return fmt.Errorf("block %d: %w", id, err)
		}
		if err := exactlySized(blk); err != nil {
			return fmt.Errorf("block %d: %w", id, err)
		}
	}
	return nil
}

func TestBuildBlockedBlocksMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		dims, grid []int
	}{
		{[]int{9, 8, 7}, []int{2, 3, 2}},
		{[]int{6, 5, 7, 4}, []int{2, 2, 3, 1}},
		{[]int{1, 6, 1, 5}, []int{1, 3, 1, 5}},
		{[]int{5, 5, 5}, []int{5, 5, 5}},
	} {
		x := dupTensor(rng, tc.dims, 250)
		for _, mo := range modeOrders(rng, tc.dims) {
			bt, err := BuildBlocked(x, tc.grid, mo)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkBlocksMatchBuild(x, bt); err != nil {
				t.Fatalf("dims %v grid %v order %v: %v", tc.dims, tc.grid, mo, err)
			}
		}
	}
}

func TestSortByModesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := dupTensor(rng, []int{4, 6, 3, 5}, 300)
	order := []int{2, 0, 3, 1}
	want := oracleTree(x, order)
	sorted := x.Clone()
	if err := sorted.SortByModes(order); err != nil {
		t.Fatal(err)
	}
	// The leaves of the oracle tree are the stable sort's values.
	if !slices.Equal(sorted.Val, want.Val) || !slices.Equal(sorted.Idx[order[3]], want.ID[3]) {
		t.Fatal("SortByModes order differs from sort.SliceStable")
	}
}
