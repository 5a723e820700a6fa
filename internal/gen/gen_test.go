package gen

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func TestSplitMix64Deterministic(t *testing.T) {
	s1, s2 := uint64(42), uint64(42)
	for n := 0; n < 10; n++ {
		if SplitMix64(&s1) != SplitMix64(&s2) {
			t.Fatal("SplitMix64 not deterministic")
		}
	}
	// Different states diverge.
	s3 := uint64(43)
	if SplitMix64(&s2) == SplitMix64(&s3) {
		t.Fatal("different states produced same value")
	}
}

func TestSubSeedStreamsAreStable(t *testing.T) {
	a := SubSeed(7, 3)
	b := SubSeed(7, 3)
	if a != b {
		t.Fatal("SubSeed not stable")
	}
	if SubSeed(7, 0) == SubSeed(7, 1) {
		t.Fatal("adjacent streams collide")
	}
	if SubSeed(7, 0) == SubSeed(8, 0) {
		t.Fatal("different masters collide")
	}
}

func TestCategoricalMatchesWeights(t *testing.T) {
	weights := []float64{1, 0, 3, 6}
	c := NewCategorical(weights)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	counts := make([]int, len(weights))
	for x := 0; x < n; x++ {
		counts[c.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d: frequency %.3f, want %.3f", i, got, want)
		}
		if math.Abs(c.Weight(i)-want) > 1e-12 {
			t.Fatalf("Weight(%d) = %v, want %v", i, c.Weight(i), want)
		}
	}
}

func TestCategoricalSingleton(t *testing.T) {
	c := NewCategorical([]float64{5})
	rng := rand.New(rand.NewSource(2))
	for x := 0; x < 10; x++ {
		if c.Sample(rng) != 0 {
			t.Fatal("singleton categorical sampled nonzero index")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"all zero": {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewCategorical(w)
		}()
	}
}

// Property: alias table probabilities sum to n (conservation), for
// random weight vectors.
func TestQuickCategoricalConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%32) + 1
		w := make([]float64, size)
		for i := range w {
			w[i] = rng.Float64() + 1e-6
		}
		c := NewCategorical(w)
		var sum float64
		for _, p := range c.prob {
			if p < 0 || p > 1+1e-9 {
				return false
			}
			sum += p
		}
		// Each cell contributes prob[i] to i and (1-prob[i]) to alias[i]:
		// total probability mass must be n * (1/n) = 1 per column sum.
		mass := make([]float64, size)
		for i := range c.prob {
			mass[i] += c.prob[i]
			mass[c.alias[i]] += 1 - c.prob[i]
		}
		for i := range mass {
			if math.Abs(mass[i]/float64(size)-c.weight[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawWeights(t *testing.T) {
	w := PowerLawWeights(100, 1.1, 5)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	// All positive, and the multiset of weights is the power law.
	var max float64
	for _, v := range w {
		if v <= 0 {
			t.Fatal("non-positive weight")
		}
		if v > max {
			max = v
		}
	}
	if max != 1 {
		t.Fatalf("max weight = %v, want 1 (rank-0 hub)", max)
	}
	// Determinism.
	w2 := PowerLawWeights(100, 1.1, 5)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("PowerLawWeights not deterministic")
		}
	}
	// Different seeds permute differently (with overwhelming probability).
	w3 := PowerLawWeights(100, 1.1, 6)
	same := true
	for i := range w {
		if w[i] != w3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical permutations")
	}
}

func TestPoissonBasic(t *testing.T) {
	p := PoissonNParams{Dims: []int{40, 50, 60}, Events: 5000}
	got := order3(t)(PoissonN(p, 11))
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NNZ() == 0 || got.NNZ() > 5000 {
		t.Fatalf("nnz = %d", got.NNZ())
	}
	if !fiberSorted(got) {
		t.Fatal("Poisson output not sorted")
	}
	// Count data: all values are positive integers.
	for _, v := range got.Val {
		if v < 1 || v != math.Trunc(v) {
			t.Fatalf("non-count value %v", v)
		}
	}
	// Determinism.
	again := order3(t)(PoissonN(p, 11))
	if again.NNZ() != got.NNZ() {
		t.Fatal("Poisson not deterministic")
	}
	for p2 := 0; p2 < got.NNZ(); p2++ {
		if got.Idx[0][p2] != again.Idx[0][p2] || got.Val[p2] != again.Val[p2] {
			t.Fatal("Poisson not deterministic")
		}
	}
	// Different seed differs.
	other := order3(t)(PoissonN(p, 12))
	if other.NNZ() == got.NNZ() {
		identical := true
		for p2 := 0; p2 < got.NNZ(); p2++ {
			if got.Idx[0][p2] != other.Idx[0][p2] || got.Idx[1][p2] != other.Idx[1][p2] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical tensors")
		}
	}
}

func TestPoissonErrors(t *testing.T) {
	if _, err := PoissonN(PoissonNParams{Dims: []int{0, 1, 1}, Events: 10}, 1); err == nil {
		t.Fatal("invalid dims accepted")
	}
	if _, err := PoissonN(PoissonNParams{Dims: []int{2, 2, 2}, Events: 0}, 1); err == nil {
		t.Fatal("zero events accepted")
	}
}

func TestPoissonSpreadLimitsSupport(t *testing.T) {
	// With a tiny spread and one component, nonzeros concentrate on a
	// small fraction of each mode.
	p := PoissonNParams{Dims: []int{200, 200, 200}, Events: 4000, Components: 1, Spread: 0.05}
	got := order3(t)(PoissonN(p, 3))
	distinct := map[nmode.Index]bool{}
	for _, i := range got.Idx[0] {
		distinct[i] = true
	}
	if len(distinct) > 20 {
		t.Fatalf("component support too wide: %d distinct i values, want <= 20", len(distinct))
	}
}

func TestClusteredBasic(t *testing.T) {
	p := ClusteredNParams{Dims: []int{300, 200, 400}, NNZ: 8000}
	got := order3(t)(ClusteredN(p, 21))
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NNZ() > 8000 || got.NNZ() < 7000 {
		t.Fatalf("nnz = %d, want close to 8000", got.NNZ())
	}
	if !fiberSorted(got) {
		t.Fatal("Clustered output not sorted")
	}
	// Determinism.
	again := order3(t)(ClusteredN(p, 21))
	if again.NNZ() != got.NNZ() {
		t.Fatal("Clustered not deterministic")
	}
}

func TestClusteredErrors(t *testing.T) {
	if _, err := ClusteredN(ClusteredNParams{Dims: []int{1, 0, 1}, NNZ: 5}, 1); err == nil {
		t.Fatal("invalid dims accepted")
	}
	if _, err := ClusteredN(ClusteredNParams{Dims: []int{5, 5, 5}, NNZ: -1}, 1); err == nil {
		t.Fatal("negative nnz accepted")
	}
}

func TestClusteredHasDenseSubstructure(t *testing.T) {
	// Compare fiber statistics: clustered data should have longer
	// fibers (more nonzeros per (i,k) pair) than an unclustered
	// power-law tensor of the same shape and nnz, because cluster
	// boxes repeatedly hit the same (i,k) pairs.
	dims := []int{400, 300, 400}
	nnz := 20000
	cl := order3(t)(ClusteredN(ClusteredNParams{Dims: dims[:], NNZ: nnz, ClusterFrac: 0.9, ClusterSide: 0.02}, 31))
	bg := order3(t)(ClusteredN(ClusteredNParams{Dims: dims[:], NNZ: nnz, ClusterFrac: 1e-9}, 31))
	clStats, err := tensor.ComputeStats(cl)
	if err != nil {
		t.Fatal(err)
	}
	bgStats, err := tensor.ComputeStats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if clStats.AvgFiberLength <= bgStats.AvgFiberLength {
		t.Fatalf("clustered avg fiber %.3f not longer than background %.3f",
			clStats.AvgFiberLength, bgStats.AvgFiberLength)
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"Poisson1", "Poisson2", "Poisson3", "NELL2", "Netflix", "Reddit", "Amazon"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s (Table II order)", i, names[i], want[i])
		}
	}
	for _, n := range names {
		d, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.PaperDims) != 3 || len(d.BenchDims) != 3 || slices.Min(d.PaperDims) <= 0 || slices.Min(d.BenchDims) <= 0 {
			t.Fatalf("%s: invalid dims", n)
		}
		if d.PaperNNZ <= 0 || d.BenchNNZ <= 0 {
			t.Fatalf("%s: invalid nnz", n)
		}
		// Paper sparsity sanity: Table II reports 8.8e-2 ... 2.5e-8.
		s := d.PaperSparsity()
		if s <= 0 || s > 0.1 {
			t.Fatalf("%s: paper sparsity %g out of range", n, s)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup accepted unknown name")
	}
}

func TestRegistryPaperSparsityValues(t *testing.T) {
	// Spot-check against the Sparsity column of Table II.
	cases := map[string]float64{
		"Poisson1": 8.9e-2, // 1.5M / 256^3 = 8.94e-2 (paper rounds to 8.8e-2)
		"Poisson3": 5.0e-6,
		"Reddit":   2.6e-8, // 924M / (1.2M*23K*1.3M); paper rounds to 2.8e-8
	}
	for name, want := range cases {
		d, _ := Lookup(name)
		got := d.PaperSparsity()
		if got < want/1.3 || got > want*1.3 {
			t.Fatalf("%s: sparsity %.3g, want about %.3g", name, got, want)
		}
	}
}

func TestRegistryGenerateSmall(t *testing.T) {
	// GenerateAt lets tests run the registry generators at tiny scale.
	for _, name := range Names() {
		d, _ := Lookup(name)
		small, err := d.GenerateAt([]int{64, 64, 64}, 2000, 77)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := small.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if small.NNZ() == 0 {
			t.Fatalf("%s: empty tensor", name)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindPoisson.String() != "poisson" || KindClustered.String() != "clustered" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown Kind should still render")
	}
}

// order3 returns a function that checks a generator result is a
// third-order tensor, failing t on an error.
func order3(t *testing.T) func(*nmode.Tensor, error) *nmode.Tensor {
	return func(x *nmode.Tensor, err error) *nmode.Tensor {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.CheckOrder3(x); err != nil {
			t.Fatal(err)
		}
		return x
	}
}

// fiberSorted reports whether x is in fiber order (i, k, j).
func fiberSorted(x *nmode.Tensor) bool {
	perm, err := x.SortPerm(tensor.SPLATTModeOrder())
	return err == nil && perm == nil
}
