package cachesim

import (
	"math/rand"
	"testing"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func randCOO(rng *rand.Rand, dims []int, nnz int) *nmode.Tensor {
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, 1)
	}
	tensor.Dedup(t)
	return t
}

func mustCSF(t *testing.T, c *nmode.Tensor) *nmode.CSF {
	t.Helper()
	csf, err := nmode.Build(c, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	return csf
}

// hugeConfig is a hierarchy big enough that nothing is ever evicted —
// every structure's distinct lines are counted exactly once as misses.
func hugeConfig() Config {
	return Config{
		LineSize: 64,
		Levels:   []LevelConfig{{Name: "L1", Size: 1 << 26, Ways: 16}},
	}
}

func TestOptionsValidation(t *testing.T) {
	h, _ := NewHierarchy(hugeConfig())
	csf := mustCSF(t, randCOO(rand.New(rand.NewSource(1)), []int{4, 4, 4}, 10))
	if err := TraceSPLATT(h, Options{Rank: 0}, csf); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if err := TraceSPLATT(h, Options{Rank: 8, IndexBytes: 3}, csf); err == nil {
		t.Fatal("bad index bytes accepted")
	}
	if err := TraceSPLATT(h, Options{Rank: 8, IndexBytes: 8}, csf); err != nil {
		t.Fatalf("8-byte indices rejected: %v", err)
	}
}

// The MB kernel is TraceSPLATT over the block list: splitting the one
// fiber across two blocks keeps the per-nonzero stream and repeats the
// per-fiber epilogue.
func TestTraceSPLATTAccessCounts(t *testing.T) {
	// One slice, one fiber, three nonzeros at rank 8 (64 B rows = one
	// line each in a 64 B-line cache).
	c := nmode.NewTensor([]int{4, 8, 4}, 0)
	c.Append([]nmode.Index{2, 1, 3}, 1)
	c.Append([]nmode.Index{2, 4, 3}, 1)
	c.Append([]nmode.Index{2, 6, 3}, 1)
	bt, err := nmode.BuildBlocked(c, []int{1, 2, 1}, tensor.SPLATTModeOrder()) // j = 1 | j = 4, 6
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		trees  []*nmode.CSF
		fibers int64
	}{
		{"tree", []*nmode.CSF{mustCSF(t, c)}, 1},
		{"blocks", bt.Blocks, 2},
	} {
		h, _ := NewHierarchy(hugeConfig())
		if err := TraceSPLATT(h, Options{Rank: 8}, tc.trees...); err != nil {
			t.Fatal(err)
		}
		tr := h.Snapshot()
		sum := func(r Region) int64 {
			var s int64
			for _, v := range tr.Served[r] {
				s += v
			}
			return s
		}
		// B: one row (one line) per nonzero = 3 accesses.
		if sum(RegionB) != 3 {
			t.Fatalf("%s: B accesses = %d, want 3", tc.name, sum(RegionB))
		}
		// C: one row at each fiber end.
		if sum(RegionC) != tc.fibers {
			t.Fatalf("%s: C accesses = %d, want %d", tc.name, sum(RegionC), tc.fibers)
		}
		// A: load + store at each fiber end.
		if sum(RegionA) != 2*tc.fibers {
			t.Fatalf("%s: A accesses = %d, want %d", tc.name, sum(RegionA), 2*tc.fibers)
		}
		// Accumulator: zeroing and epilogue read per fiber + load+store
		// per nonzero (6).
		if want := 2*tc.fibers + 6; sum(RegionAccum) != want {
			t.Fatalf("%s: accum accesses = %d, want %d", tc.name, sum(RegionAccum), want)
		}
		// Values: 3 nonzeros x 8 B = 3 accesses.
		if sum(RegionVal) != 3 {
			t.Fatalf("%s: val accesses = %d, want 3", tc.name, sum(RegionVal))
		}
		// Distinct B rows 1, 4, 6 at rank 8: rows 1,4,6 cover offsets
		// 64..127, 256..319, 384..447 -> 3 distinct lines from memory.
		if tr.MemLines(RegionB) != 3 {
			t.Fatalf("%s: B memory lines = %d, want 3", tc.name, tr.MemLines(RegionB))
		}
	}
}

func TestPressurePointsRemoveTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randCOO(rng, []int{16, 64, 16}, 400)
	csf := mustCSF(t, x)

	measure := func(opt Options) Traffic {
		h, _ := NewHierarchy(hugeConfig())
		opt.Rank = 16
		if err := TraceSPLATT(h, opt, csf); err != nil {
			t.Fatal(err)
		}
		return h.Snapshot()
	}

	base := measure(Options{})
	if base.MemLines(RegionB) == 0 {
		t.Fatal("baseline has no B traffic")
	}

	noB := measure(Options{SkipB: true})
	if got := noB.MemLines(RegionB) + noB.Served[RegionB][0]; got != 0 {
		t.Fatalf("type 1 (SkipB) still touches B: %d", got)
	}

	bL1 := measure(Options{BRowZero: true})
	if bL1.MemLines(RegionB) != base.MemLines(RegionB)/int64(len(csfDistinctJ(csf))) &&
		bL1.MemLines(RegionB) > 2 {
		// Row 0 occupies at most ceil(16*8/64) = 2 lines.
		t.Fatalf("type 2 (BRowZero) memory lines = %d, want <= 2", bL1.MemLines(RegionB))
	}

	noAcc := measure(Options{SkipAccumLoads: true})
	if noAcc.Served[RegionAccum][0]+noAcc.MemLines(RegionAccum) != 0 {
		t.Fatal("type 3 (SkipAccumLoads) still touches the accumulator")
	}
	// A is store-only under type 3: half the baseline A accesses.
	var aBase, aNoAcc int64
	for _, v := range base.Served[RegionA] {
		aBase += v
	}
	for _, v := range noAcc.Served[RegionA] {
		aNoAcc += v
	}
	if aNoAcc*2 != aBase {
		t.Fatalf("type 3 A accesses = %d, want half of %d", aNoAcc, aBase)
	}

	noC := measure(Options{SkipC: true})
	var cTotal int64
	for _, v := range noC.Served[RegionC] {
		cTotal += v
	}
	if cTotal != 0 {
		t.Fatal("type 4 (SkipC) still touches C")
	}

	inner := measure(Options{FlopsInner: true})
	var cInner, cBase int64
	for _, v := range inner.Served[RegionC] {
		cInner += v
	}
	for _, v := range base.Served[RegionC] {
		cBase += v
	}
	// Type 5 touches C once per nonzero instead of once per fiber; at
	// rank 16 a row is 128 B = 2 lines of 64 B.
	if cInner != int64(2*csf.NNZ()) {
		t.Fatalf("type 5 C accesses = %d, want 2*nnz=%d", cInner, 2*csf.NNZ())
	}
	if cInner <= cBase {
		t.Fatal("type 5 must increase C accesses")
	}
}

// csfDistinctJ returns the distinct j values (test helper).
func csfDistinctJ(c *nmode.CSF) map[nmode.Index]bool {
	m := map[nmode.Index]bool{}
	for _, j := range c.ID[2] {
		m[j] = true
	}
	return m
}

// One tree and the blocks of an MB layout carry the same tensor stream:
// the strip loop sweeps every block, so each nonzero is read once per
// register block either way.
func TestTraceRankBEliminatesAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randCOO(rng, []int{16, 32, 16}, 300)
	bt, err := nmode.BuildBlocked(x, []int{2, 3, 2}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	for name, trees := range map[string][]*nmode.CSF{
		"tree":   {mustCSF(t, x)},
		"blocks": bt.Blocks,
	} {
		h, _ := NewHierarchy(hugeConfig())
		if err := TraceRankB(h, Options{Rank: 64, RankBlockCols: 32}, trees...); err != nil {
			t.Fatal(err)
		}
		tr := h.Snapshot()
		var accum int64
		for _, v := range tr.Served[RegionAccum] {
			accum += v
		}
		if accum != 0 {
			t.Fatalf("%s: rank-blocked kernel generated %d accumulator accesses, want 0", name, accum)
		}
		// Values are re-read once per register block: rank 64 = 4
		// register blocks of 16 -> 4x the nonzero count.
		var val int64
		for _, v := range tr.Served[RegionVal] {
			val += v
		}
		if val != int64(4*x.NNZ()) {
			t.Fatalf("%s: val accesses = %d, want %d", name, val, 4*x.NNZ())
		}
	}
}

// Trees the order-3 traces cannot read are rejected: another order,
// another level order, trees of two shapes, or no tree at all.
func TestTraceRejectsNonSPLATTTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randCOO(rng, []int{6, 5, 4}, 40)
	order4 := nmode.NewTensor([]int{3, 3, 3, 3}, 1)
	order4.Append([]nmode.Index{1, 2, 0, 1}, 1)
	tree4, err := nmode.Build(order4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ijk, err := nmode.Build(x, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	splatt := mustCSF(t, x)
	other := mustCSF(t, randCOO(rng, []int{6, 5, 5}, 40))
	for _, tc := range []struct {
		name  string
		trees []*nmode.CSF
	}{
		{"order-4 tree", []*nmode.CSF{tree4}},
		{"(0, 1, 2) tree", []*nmode.CSF{ijk}},
		{"(0, 1, 2) block beside a SPLATT block", []*nmode.CSF{splatt, nil, ijk}},
		{"trees of two shapes", []*nmode.CSF{splatt, other}},
		{"empty block list", nil},
		{"all blocks nil", []*nmode.CSF{nil, nil}},
	} {
		h, _ := NewHierarchy(hugeConfig())
		if err := TraceSPLATT(h, Options{Rank: 8}, tc.trees...); err == nil {
			t.Errorf("TraceSPLATT accepted %s", tc.name)
		}
		if err := TraceRankB(h, Options{Rank: 8, RankBlockCols: 4}, tc.trees...); err == nil {
			t.Errorf("TraceRankB accepted %s", tc.name)
		}
	}
}

// The MB kernel is TraceSPLATT over the block list: every nonzero of
// the tensor is streamed exactly once across the blocks.
func TestTraceMBConservesTensorStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randCOO(rng, []int{12, 12, 12}, 200)
	bt, err := nmode.BuildBlocked(x, []int{2, 3, 2}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHierarchy(hugeConfig())
	if err := TraceSPLATT(h, Options{Rank: 8}, bt.Blocks...); err != nil {
		t.Fatal(err)
	}
	tr := h.Snapshot()
	var val int64
	for _, v := range tr.Served[RegionVal] {
		val += v
	}
	if val != int64(x.NNZ()) {
		t.Fatalf("val accesses = %d, want nnz=%d", val, x.NNZ())
	}
}

func TestTraceCOOCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randCOO(rng, []int{8, 8, 8}, 100)
	h, _ := NewHierarchy(hugeConfig())
	if err := TraceCOO(h, x, Options{Rank: 8}); err != nil {
		t.Fatal(err)
	}
	tr := h.Snapshot()
	sum := func(r Region) int64 {
		var s int64
		for _, v := range tr.Served[r] {
			s += v
		}
		return s
	}
	n := int64(x.NNZ())
	if sum(RegionB) != n || sum(RegionC) != n {
		t.Fatalf("B/C accesses = %d/%d, want %d each", sum(RegionB), sum(RegionC), n)
	}
	if sum(RegionA) != 2*n {
		t.Fatalf("A accesses = %d, want %d", sum(RegionA), 2*n)
	}
	if sum(RegionAccum) != 0 {
		t.Fatal("COO kernel has no accumulator")
	}
}

// The core claim of Sec. V: on a tensor whose mode-2 factor exceeds the
// cache, blocking reduces DRAM traffic to B.
func TestBlockingReducesBTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// J = 4096 rows x rank 64 x 8 B = 2 MB of B; L2 is 512 KB.
	dims := []int{64, 4096, 64}
	x := randCOO(rng, dims, 40000)
	csf := mustCSF(t, x)
	rank := 64

	baseTr, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceSPLATT(h, Options{Rank: rank}, csf)
	})
	if err != nil {
		t.Fatal(err)
	}

	bt, err := nmode.BuildBlocked(x, []int{1, 8, 1}, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	mbTr, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceSPLATT(h, Options{Rank: rank}, bt.Blocks...)
	})
	if err != nil {
		t.Fatal(err)
	}

	baseB := baseTr.MemBytes(RegionB)
	mbB := mbTr.MemBytes(RegionB)
	if baseB == 0 {
		t.Fatal("baseline B traffic is zero — test tensor too small")
	}
	if mbB >= baseB {
		t.Fatalf("MB did not reduce B DRAM traffic: %d >= %d", mbB, baseB)
	}
	t.Logf("B DRAM bytes: SPLATT=%d MB=%d (%.2fx reduction)", baseB, mbB, float64(baseB)/float64(mbB))
}

// Rank blocking's claim (Sec. V-B): with a huge rank, sweeping strips
// lets factor *rows* stay resident, cutting B traffic.
func TestRankBlockingReducesBTrafficAtHighRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Rank 512: B = 512 rows x 512 cols x 8 B = 2 MB >> L2. Per strip
	// of 64 cols, the strip working set is 256 KB < L2.
	dims := []int{32, 512, 32}
	x := randCOO(rng, dims, 20000)
	csf := mustCSF(t, x)
	rank := 512

	baseTr, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceSPLATT(h, Options{Rank: rank}, csf)
	})
	if err != nil {
		t.Fatal(err)
	}
	rbTr, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceRankB(h, Options{Rank: rank, RankBlockCols: 64}, csf)
	})
	if err != nil {
		t.Fatal(err)
	}
	baseB := baseTr.MemBytes(RegionB)
	rbB := rbTr.MemBytes(RegionB)
	if rbB >= baseB {
		t.Fatalf("RankB did not reduce B DRAM traffic: %d >= %d", rbB, baseB)
	}
	t.Logf("B DRAM bytes: SPLATT=%d RankB=%d (%.2fx reduction)", baseB, rbB, float64(baseB)/float64(rbB))
}

func TestMeasureTrafficPropagatesErrors(t *testing.T) {
	if _, err := MeasureTraffic(Config{}, func(h *Hierarchy) error { return nil }); err == nil {
		t.Fatal("bad config accepted")
	}
	csf := mustCSF(t, randCOO(rand.New(rand.NewSource(8)), []int{4, 4, 4}, 10))
	if _, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceSPLATT(h, Options{Rank: 0}, csf)
	}); err == nil {
		t.Fatal("trace error swallowed")
	}
}

// Ablation (Sec. V-B's "small rearrangement"): with power-of-two ranks,
// unpacked strips put every strip row on the same few cache sets and
// conflict-miss; packing restores the blocking benefit.
func TestStripPackingAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := []int{32, 512, 32}
	x := randCOO(rng, dims, 20000)
	csf := mustCSF(t, x)
	rank := 512

	packed, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceRankB(h, Options{Rank: rank, RankBlockCols: 64}, csf)
	})
	if err != nil {
		t.Fatal(err)
	}
	unpacked, err := MeasureTraffic(POWER8(), func(h *Hierarchy) error {
		return TraceRankB(h, Options{Rank: rank, RankBlockCols: 64, NoStripPacking: true}, csf)
	})
	if err != nil {
		t.Fatal(err)
	}
	pb, ub := packed.MemBytes(RegionB), unpacked.MemBytes(RegionB)
	if pb*2 >= ub {
		t.Fatalf("packing should cut B DRAM traffic by >2x: packed=%d unpacked=%d", pb, ub)
	}
	t.Logf("B DRAM bytes: packed=%d unpacked=%d (%.1fx)", pb, ub, float64(ub)/float64(pb))
}
