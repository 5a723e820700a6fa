package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spblock/internal/nmode"
)

func TestChunkValidation(t *testing.T) {
	if _, err := Chunk([]int64{1}, 0); err == nil {
		t.Fatal("parts 0 accepted")
	}
	if _, err := Chunk([]int64{-1}, 2); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestChunkUniform(t *testing.T) {
	w := make([]int64, 100)
	for i := range w {
		w[i] = 1
	}
	bounds, err := Chunk(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 25, 50, 75, 100}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

func TestChunkSkewed(t *testing.T) {
	// One huge slice up front: the greedy rule gives it its own part
	// and rebalances the rest.
	w := []int64{1000, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	bounds, err := Chunk(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[1] != 1 {
		t.Fatalf("first part should hold only the heavy slice, bounds = %v", bounds)
	}
	// Remaining 9 unit slices split into two parts of ~4/5.
	if bounds[2]-bounds[1] < 3 || bounds[2]-bounds[1] > 6 {
		t.Fatalf("middle part imbalanced: %v", bounds)
	}
}

func TestChunkMorePartsThanSlices(t *testing.T) {
	bounds, err := Chunk([]int64{5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0] != 0 || bounds[4] != 2 {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := 1; i <= 4; i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("non-monotone bounds %v", bounds)
		}
	}
}

func TestChunkAllZeros(t *testing.T) {
	bounds, err := Chunk(make([]int64, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0] != 0 || bounds[3] != 10 {
		t.Fatalf("bounds = %v", bounds)
	}
}

// Property: bounds always cover [0, n] monotonically, and no part
// exceeds twice the ideal weight plus the heaviest single slice (the
// greedy guarantee).
func TestQuickChunkInvariants(t *testing.T) {
	f := func(seed int64, pp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		parts := int(pp%8) + 1
		w := make([]int64, n)
		var total, maxW int64
		for i := range w {
			w[i] = int64(rng.Intn(50))
			total += w[i]
			if w[i] > maxW {
				maxW = w[i]
			}
		}
		bounds, err := Chunk(w, parts)
		if err != nil || len(bounds) != parts+1 {
			return false
		}
		if bounds[0] != 0 || bounds[parts] != n {
			return false
		}
		for i := 1; i <= parts; i++ {
			if bounds[i] < bounds[i-1] {
				return false
			}
		}
		ideal := total/int64(parts) + 1
		for i := 0; i < parts; i++ {
			var sum int64
			for x := bounds[i]; x < bounds[i+1]; x++ {
				sum += w[x]
			}
			if i < parts-1 && sum > ideal+maxW {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceWeights(t *testing.T) {
	x := nmode.NewTensor([]int{3, 4, 5}, 0)
	x.Append([]nmode.Index{0, 1, 2}, 1)
	x.Append([]nmode.Index{0, 3, 2}, 1)
	x.Append([]nmode.Index{2, 1, 4}, 1)
	w0, err := SliceWeights(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w0[0] != 2 || w0[1] != 0 || w0[2] != 1 {
		t.Fatalf("mode-0 weights = %v", w0)
	}
	w1, _ := SliceWeights(x, 1)
	if w1[1] != 2 || w1[3] != 1 {
		t.Fatalf("mode-1 weights = %v", w1)
	}
	w2, _ := SliceWeights(x, 2)
	if w2[2] != 2 || w2[4] != 1 {
		t.Fatalf("mode-2 weights = %v", w2)
	}
	if _, err := SliceWeights(x, 3); err == nil {
		t.Fatal("mode 3 accepted")
	}
}

func TestGrid3Shapes(t *testing.T) {
	// Netflix-like: nearly all parts go to the huge mode-1.
	g, err := Grid3(64, []int{480000, 18000, 80})
	if err != nil {
		t.Fatal(err)
	}
	if g[0]*g[1]*g[2] != 64 {
		t.Fatalf("grid %v does not multiply to 64", g)
	}
	if g[0] < 16 {
		t.Fatalf("grid %v should put most parts on the 480K mode", g)
	}
	if g[2] > 2 {
		t.Fatalf("grid %v overpartitions the length-80 mode", g)
	}

	// Cubic tensor: balanced grid.
	g2, err := Grid3(64, []int{30000, 30000, 30000})
	if err != nil {
		t.Fatal(err)
	}
	if g2 != [3]int{4, 4, 4} {
		t.Fatalf("cubic grid = %v, want 4x4x4", g2)
	}
}

func TestGrid3RespectsModeLengths(t *testing.T) {
	// p exceeds one mode: that mode cannot take more parts than length.
	g, err := Grid3(16, []int{2, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if g[0] > 2 {
		t.Fatalf("grid %v exceeds mode length 2", g)
	}
	if g[0]*g[1]*g[2] != 16 {
		t.Fatalf("grid %v wrong product", g)
	}
	// Impossible: p larger than volume.
	if _, err := Grid3(1000, []int{2, 2, 2}); err == nil {
		t.Fatal("impossible grid accepted")
	}
	if _, err := Grid3(0, []int{2, 2, 2}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestGrid3PrimeP(t *testing.T) {
	g, err := Grid3(7, []int{100, 50, 10})
	if err != nil {
		t.Fatal(err)
	}
	if g[0]*g[1]*g[2] != 7 {
		t.Fatalf("grid %v", g)
	}
	if g[0] != 7 {
		t.Fatalf("grid %v should place the prime on the longest mode", g)
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(24)
	want := []int{1, 2, 3, 4, 6, 8, 12, 24}
	if len(got) != len(want) {
		t.Fatalf("divisors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors = %v, want %v", got, want)
		}
	}
	if d := Divisors(1); len(d) != 1 || d[0] != 1 {
		t.Fatalf("Divisors(1) = %v", d)
	}
}

func TestNewGrid4(t *testing.T) {
	g, err := NewGrid4(32, 4, 64, []int{1000, 1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if g.RankParts != 4 || g.Inner[0]*g.Inner[1]*g.Inner[2] != 8 {
		t.Fatalf("grid = %+v", g)
	}
	if g.String() != "2x2x2x4" {
		t.Fatalf("String = %q", g.String())
	}
	if _, err := NewGrid4(32, 5, 64, []int{10, 10, 10}); err == nil {
		t.Fatal("t not dividing p accepted")
	}
	if _, err := NewGrid4(32, 4, 66, []int{10, 10, 10}); err == nil {
		t.Fatal("rank not divisible by t accepted")
	}
}

func TestRankStrips(t *testing.T) {
	b, err := RankStrips(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 16, 32, 48, 64}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("strips = %v", b)
		}
	}
	if _, err := RankStrips(64, 5); err == nil {
		t.Fatal("uneven strips accepted")
	}
	if _, err := RankStrips(64, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
}
