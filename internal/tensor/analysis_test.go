package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spblock/internal/nmode"
)

func TestProfileModeUniform(t *testing.T) {
	// One nonzero per index: Gini 0, everything non-empty.
	c := nmode.NewTensor([]int{10, 10, 10}, 0)
	for i := 0; i < 10; i++ {
		add(c, nmode.Index(i), nmode.Index(i), nmode.Index(i), 1)
	}
	p, err := ProfileMode(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NonEmpty != 10 || p.MaxCount != 1 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Gini > 1e-9 {
		t.Fatalf("uniform counts should have Gini 0, got %v", p.Gini)
	}
	if math.Abs(p.MeanCount-1) > 1e-12 {
		t.Fatalf("mean = %v", p.MeanCount)
	}
	// Top 10% of 10 indices = 1 index = 10% of mass.
	if math.Abs(p.TopShare[0]-0.1) > 1e-9 {
		t.Fatalf("top10 share = %v", p.TopShare[0])
	}
}

func TestProfileModeSkewed(t *testing.T) {
	// All nonzeros on a single index: Gini near 1, top shares 100%.
	c := nmode.NewTensor([]int{100, 4, 4}, 0)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			add(c, 7, nmode.Index(j), nmode.Index(k), 1)
		}
	}
	p, err := ProfileMode(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NonEmpty != 1 {
		t.Fatalf("nonEmpty = %d", p.NonEmpty)
	}
	if p.Gini < 0.9 {
		t.Fatalf("single-hub mode should have Gini near 1, got %v", p.Gini)
	}
	if p.TopShare[0] != 1 || p.TopShare[1] != 1 {
		t.Fatalf("top shares = %v", p.TopShare)
	}
}

func TestProfileModeValidation(t *testing.T) {
	c := nmode.NewTensor([]int{2, 2, 2}, 0)
	if _, err := ProfileMode(c, 3); err == nil {
		t.Fatal("mode 3 accepted")
	}
	bad := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(bad, 5, 0, 0, 1)
	if _, err := ProfileMode(bad, 0); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestProfileModeEmpty(t *testing.T) {
	c := nmode.NewTensor([]int{5, 5, 5}, 0)
	p, err := ProfileMode(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NonEmpty != 0 || p.Gini != 0 || p.MaxCount != 0 {
		t.Fatalf("empty profile = %+v", p)
	}
}

func TestProfileTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCOO(rng, []int{20, 30, 25}, 500)
	Dedup(c)
	p, err := ProfileTensor(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.NNZ != c.NNZ() {
		t.Fatal("stats mismatch")
	}
	if p.MaxFiberLen < 1 {
		t.Fatalf("max fiber = %d", p.MaxFiberLen)
	}
	s := p.String()
	for _, want := range []string{"mode-1", "mode-2", "mode-3", "gini"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestProfileDistinguishesClusteredFromUniform(t *testing.T) {
	// A Zipf-ish mode should profile as more skewed than a uniform one.
	rng := rand.New(rand.NewSource(2))
	uniform := randomCOO(rng, []int{200, 50, 50}, 3000)
	skewed := nmode.NewTensor([]int{200, 50, 50}, 3000)
	for p := 0; p < 3000; p++ {
		// Quadratic skew toward low indices.
		u := rng.Float64()
		add(skewed, nmode.Index(float64(199)*u*u), nmode.Index(rng.Intn(50)), nmode.Index(rng.Intn(50)), 1)
	}
	pu, err := ProfileMode(uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ProfileMode(skewed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Gini <= pu.Gini {
		t.Fatalf("skewed Gini %v not above uniform %v", ps.Gini, pu.Gini)
	}
	if ps.TopShare[0] <= pu.TopShare[0] {
		t.Fatalf("skewed top-10%% %v not above uniform %v", ps.TopShare[0], pu.TopShare[0])
	}
}
