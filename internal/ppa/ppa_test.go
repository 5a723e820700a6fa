package ppa

import (
	"math/rand"
	"testing"

	"spblock/internal/cachesim"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func testTensor(t *testing.T, seed int64, dims []int, nnz int) *nmode.CSF {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		c.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.Float64()+0.1)
	}
	tensor.Dedup(c)
	csf, err := nmode.Build(c, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	return csf
}

func TestVariantsCompleteAndDescribed(t *testing.T) {
	vs := Variants()
	if len(vs) != 6 {
		t.Fatalf("got %d variants, Table I has 6", len(vs))
	}
	seen := map[Variant]bool{}
	for _, v := range vs {
		if v.Description() == "" || seen[v] {
			t.Fatalf("variant %d bad or duplicated", v)
		}
		seen[v] = true
	}
	if Variant(0).Description() == "" {
		t.Fatal("unknown variant should still describe itself")
	}
}

func TestBaselineMatchesSPLATTSemantics(t *testing.T) {
	// Type 6 must compute a real MTTKRP (it is the reference all other
	// pressure points are compared against).
	csf := testTensor(t, 1, []int{8, 8, 8}, 100)
	rank := 16
	rng := rand.New(rand.NewSource(2))
	b := la.NewMatrix(8, rank)
	c := la.NewMatrix(8, rank)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	out := la.NewMatrix(8, rank)
	accum := make([]float64, rank)
	Run(Type6Unchanged, csf, b, c, out, accum)

	// Oracle: COO accumulation.
	want := la.NewMatrix(8, rank)
	coo := csf.ToTensor()
	for p := 0; p < coo.NNZ(); p++ {
		brow := b.Row(int(coo.Idx[1][p]))
		crow := c.Row(int(coo.Idx[2][p]))
		orow := want.Row(int(coo.Idx[0][p]))
		for q := 0; q < rank; q++ {
			orow[q] += coo.Val[p] * brow[q] * crow[q]
		}
	}
	if d := out.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("baseline kernel wrong by %v", d)
	}

	// Type 5 rearranges the same arithmetic: identical result.
	out5 := la.NewMatrix(8, rank)
	Run(Type5FlopsInner, csf, b, c, out5, accum)
	if d := out5.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("flops-inner kernel wrong by %v", d)
	}
}

func TestAllVariantsRunWithoutPanic(t *testing.T) {
	csf := testTensor(t, 3, []int{10, 12, 9}, 200)
	for _, rank := range []int{8, 16, 24, 33} { // includes non-multiple-of-16 tails
		b := la.NewMatrix(12, rank)
		c := la.NewMatrix(9, rank)
		out := la.NewMatrix(10, rank)
		accum := make([]float64, rank)
		for _, v := range Variants() {
			out.Zero()
			Run(v, csf, b, c, out, accum)
		}
	}
}

func TestRunPanicsOnUnknownVariant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	csf := testTensor(t, 4, []int{4, 4, 4}, 10)
	Run(Variant(0), csf, la.NewMatrix(4, 8), la.NewMatrix(4, 8), la.NewMatrix(4, 8), make([]float64, 8))
}

func TestMeasureValidation(t *testing.T) {
	csf := testTensor(t, 5, []int{4, 4, 4}, 10)
	if _, err := Measure(csf, la.NewMatrix(4, 8), la.NewMatrix(4, 4), 8, 1); err == nil {
		t.Fatal("mismatched ranks accepted")
	}
	if _, err := Measure(csf, la.NewMatrix(3, 8), la.NewMatrix(4, 8), 8, 1); err == nil {
		t.Fatal("mismatched B rows accepted")
	}
	// Only the SPLATT layout: an (i, j, k) tree or an order-4 tree of
	// matching leading dims is rejected.
	ijk, err := nmode.Build(csf.ToTensor(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	x4 := nmode.NewTensor([]int{4, 4, 4, 4}, 1)
	x4.Append([]nmode.Index{1, 2, 3, 0}, 1)
	tree4, err := nmode.Build(x4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*nmode.CSF{"(0, 1, 2)": ijk, "order-4": tree4} {
		if _, err := Measure(tree, la.NewMatrix(4, 8), la.NewMatrix(4, 8), 8, 1); err == nil {
			t.Fatalf("%s tree accepted", name)
		}
	}
}

func TestMeasureProducesOrderedResults(t *testing.T) {
	csf := testTensor(t, 6, []int{16, 64, 16}, 2000)
	rank := 32
	rng := rand.New(rand.NewSource(7))
	b := la.NewMatrix(64, rank)
	c := la.NewMatrix(16, rank)
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	for i := range c.Data {
		c.Data[i] = rng.Float64()
	}
	res, err := Measure(csf, b, c, rank, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("got %d results", len(res))
	}
	for i, v := range Variants() {
		if res[i].Variant != v {
			t.Fatalf("result %d is %v, want %v (Table I order)", i, res[i].Variant, v)
		}
		if res[i].Seconds < 0 {
			t.Fatalf("negative time for %v", v)
		}
	}
	// Baseline's relative time is 1 by construction.
	last := res[len(res)-1]
	if last.Variant != Type6Unchanged || last.Relative != 1 {
		t.Fatalf("baseline relative = %v", last.Relative)
	}
}

// The traffic-side reproduction of Table I: simulated DRAM traffic must
// order the pressure points the way the paper's measured times do —
// removing B saves the most, then pinning B to L1; removing C saves
// little; moving flops inward costs little.
func TestTrafficOrderingMatchesTableI(t *testing.T) {
	// A tensor whose B footprint dwarfs the cache: J = 8192, rank 128
	// -> 8 MB.
	csf := testTensor(t, 8, []int{64, 8192, 64}, 60000)
	rank := 128
	mem := func(v Variant) int64 {
		tr, err := cachesim.MeasureTraffic(cachesim.POWER8(), func(h *cachesim.Hierarchy) error {
			return cachesim.TraceSPLATT(h, v.TraceOptions(rank), csf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.MemBytes(-1)
	}
	base := mem(Type6Unchanged)
	noB := mem(Type1NoB)
	bL1 := mem(Type2BInL1)
	noC := mem(Type4NoC)
	inner := mem(Type5FlopsInner)

	if noB >= base {
		t.Fatalf("removing B did not cut traffic: %d >= %d", noB, base)
	}
	if bL1 >= base {
		t.Fatalf("pinning B to L1 did not cut traffic: %d >= %d", bL1, base)
	}
	savedB := base - noB
	savedC := base - noC
	if savedB <= savedC {
		t.Fatalf("B savings (%d) must exceed C savings (%d) — the paper's key finding", savedB, savedC)
	}
	// Type 5 barely moves traffic (< 15% delta) — computation, not
	// data, is what it changes.
	delta := inner - base
	if delta < 0 {
		delta = -delta
	}
	if float64(delta) > 0.15*float64(base) {
		t.Fatalf("flops-inner moved traffic by %d (>15%% of %d)", delta, base)
	}
	t.Logf("DRAM bytes: base=%d noB=%d bL1=%d noC=%d inner=%d", base, noB, bL1, noC, inner)
}
