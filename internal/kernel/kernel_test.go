package kernel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spblock/internal/la"
)

func TestWidths(t *testing.T) {
	got := Widths()
	want := []int{8, 16, 24, 32}
	if !slices.Equal(got, want) {
		t.Fatalf("Widths() = %v, want %v", got, want)
	}
	if got[0] != MinWidth || got[len(got)-1] != MaxWidth {
		t.Fatalf("Widths() = %v inconsistent with MinWidth=%d, MaxWidth=%d", got, MinWidth, MaxWidth)
	}
	if !slices.Contains(got, DefaultWidth) {
		t.Fatalf("DefaultWidth=%d not registered in %v", DefaultWidth, got)
	}
}

func TestResolvePolicy(t *testing.T) {
	cases := []struct {
		width int
		name  string
	}{
		{0, "scalar"}, {1, "scalar"}, {7, "scalar"},
		{8, "w8"}, {12, "w8"}, {15, "w8"},
		{16, "w16"}, {20, "w16"}, {23, "w16"},
		{24, "w24"}, {30, "w16"}, // no exact 30: step at DefaultWidth
		{32, "w32"},
		{40, "w16"}, {48, "w16"}, {100, "w16"}, {512, "w16"},
	}
	for _, tc := range cases {
		s := Resolve(tc.width)
		if s.Name != tc.name {
			t.Errorf("Resolve(%d) = %q, want %q", tc.width, s.Name, tc.name)
		}
		if s.FiberTail == nil {
			t.Errorf("Resolve(%d) missing tail kernel", tc.width)
		}
		if s.Width > 0 && s.Fiber == nil {
			t.Errorf("Resolve(%d) width %d missing unrolled kernel", tc.width, s.Width)
		}
		if s.Width == 0 && s.Name != "scalar" {
			t.Errorf("Resolve(%d) has Width 0 but name %q", tc.width, s.Name)
		}
	}
}

func TestStripCandidates(t *testing.T) {
	cases := []struct {
		rank int
		want []int
	}{
		{0, nil},
		{1, []int{1}},
		{7, []int{7}},
		{8, []int{8}},
		{16, []int{8, 16}},
		{20, []int{8, 16, 20}},
		{48, []int{8, 16, 24, 32, 40, 48}},
	}
	for _, tc := range cases {
		got := StripCandidates(tc.rank)
		if !slices.Equal(got, tc.want) {
			t.Errorf("StripCandidates(%d) = %v, want %v", tc.rank, got, tc.want)
		}
	}
	// Every candidate must be executable: positive, at most the rank,
	// and ascending with no duplicates.
	got := StripCandidates(512)
	for x, bs := range got {
		if bs <= 0 || bs > 512 {
			t.Fatalf("candidate %d out of range for rank 512", bs)
		}
		if x > 0 && bs <= got[x-1] {
			t.Fatalf("candidates not strictly ascending: %v", got)
		}
	}
	if got[len(got)-1] != 512 {
		t.Fatalf("rank itself missing from candidates: %v", got)
	}
}

// scenario is one randomized kernel invocation: operands with
// independent strides, a fiber of nonzeros, a scale row and a
// destination row. The destination is either a row of a strided matrix
// (core's output rows) or a standalone slice (the nmode walker's
// accumulators); either way its backing array extends past the row, so
// a kernel that writes outside [r0, r1) corrupts a checked slot.
type scenario struct {
	vals     []float64
	ids      []int32
	b        *la.Matrix
	scale    []float64
	dst      []float64 // backing array of the destination
	lo       int       // destination row = dst[lo : lo+rank]
	rank     int
	pLo, pHi int
}

// randMatrix builds a rows x cols matrix with extra stride padding so
// kernels that over-read past Cols would corrupt detectable slots.
func randMatrix(rng *rand.Rand, rows, cols, pad int) *la.Matrix {
	m := &la.Matrix{Rows: rows, Cols: cols, Stride: cols + pad, Data: make([]float64, rows*(cols+pad))}
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randScenario(rng *rand.Rand, rank, fibLen int, matrixRow bool) scenario {
	rowsB := 1 + rng.Intn(9)
	sc := scenario{
		vals: make([]float64, fibLen+rng.Intn(4)),
		b:    randMatrix(rng, rowsB, rank, rng.Intn(3)),
		rank: rank,
	}
	c := randMatrix(rng, 1+rng.Intn(5), rank, rng.Intn(3))
	sc.scale = c.Row(rng.Intn(c.Rows))
	if matrixRow {
		o := randMatrix(rng, 1+rng.Intn(5), rank, rng.Intn(3))
		sc.dst, sc.lo = o.Data, rng.Intn(o.Rows)*o.Stride
	} else {
		sc.dst = make([]float64, rank+rng.Intn(3))
		for q := range sc.dst {
			sc.dst[q] = float64(q) * 0.25
		}
	}
	sc.ids = make([]int32, len(sc.vals))
	for p := range sc.vals {
		sc.vals[p] = rng.NormFloat64()
		sc.ids[p] = int32(rng.Intn(rowsB))
	}
	sc.pLo = rng.Intn(len(sc.vals) - fibLen + 1)
	sc.pHi = sc.pLo + fibLen
	return sc
}

// refFiber is the naive reference for the fiber contract: per column,
// accumulate the fiber, then scale it and add it into the destination.
func refFiber(sc scenario, dst []float64, r0, r1 int) {
	for q := r0; q < r1; q++ {
		var acc float64
		for p := sc.pLo; p < sc.pHi; p++ {
			acc += sc.vals[p] * sc.b.Data[int(sc.ids[p])*sc.b.Stride+q]
		}
		dst[q] += acc * sc.scale[q]
	}
}

func close64(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*(math.Abs(a)+math.Abs(b)+1)
}

func checkFiber(t *testing.T, sc scenario, s Strip, r0, r1 int) {
	t.Helper()
	got := slices.Clone(sc.dst)
	want := slices.Clone(sc.dst)
	row := got[sc.lo : sc.lo+sc.rank]
	if s.Width > 0 && r1-r0 == s.Width {
		s.Fiber(sc.vals, sc.ids, sc.b, row, sc.scale, sc.pLo, sc.pHi, r0)
	} else {
		s.FiberTail(sc.vals, sc.ids, sc.b, row, sc.scale, sc.pLo, sc.pHi, r0, r1)
	}
	refFiber(sc, want[sc.lo:sc.lo+sc.rank], r0, r1)
	for x := range want {
		if !close64(got[x], want[x]) {
			t.Fatalf("%s fiber [%d,%d): dst[%d] = %v, want %v (fiber len %d)",
				s.Name, r0, r1, x, got[x], want[x], sc.pHi-sc.pLo)
		}
	}
}

// TestKernelsMatchReference differentially tests every registered
// width (and the scalar tail) against the naive per-column reference
// over a deterministic sweep of ranks, strides, offsets and fiber
// lengths — including empty fibers — for both destination shapes.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		rank := 1 + rng.Intn(2*MaxWidth)
		fibLen := rng.Intn(12)
		sc := randScenario(rng, rank, fibLen, iter%2 == 0)
		for _, s := range specialized {
			if s.Width > rank {
				continue
			}
			r0 := rng.Intn(rank - s.Width + 1)
			checkFiber(t, sc, s, r0, r0+s.Width)
		}
		// Scalar tail at a random sub-MaxWidth window.
		w := 1 + rng.Intn(min(rank, MaxWidth-1))
		r0 := rng.Intn(rank - w + 1)
		checkFiber(t, sc, scalarStrip, r0, r0+w)
		// A sub-MinWidth tail, as a strip narrower than MinWidth runs.
		w = 1 + rng.Intn(min(rank, MinWidth-1))
		r0 = rng.Intn(rank - w + 1)
		checkFiber(t, sc, scalarStrip, r0, r0+w)
	}
}

// FuzzFiberKernel drives every fiber variant and the scalar tail
// against the reference with fuzzer-chosen shapes, writing into a
// matrix row or a standalone accumulator.
func FuzzFiberKernel(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(5), uint8(0), false)
	f.Add(int64(42), uint8(33), uint8(0), uint8(3), true)
	f.Add(int64(-9), uint8(64), uint8(11), uint8(60), false)
	f.Add(int64(5), uint8(7), uint8(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, rankRaw, fibRaw, offRaw uint8, matrixRow bool) {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + int(rankRaw)%(2*MaxWidth)
		sc := randScenario(rng, rank, int(fibRaw)%16, matrixRow)
		for _, s := range specialized {
			if s.Width > rank {
				continue
			}
			r0 := int(offRaw) % (rank - s.Width + 1)
			checkFiber(t, sc, s, r0, r0+s.Width)
		}
		w := 1 + int(fibRaw)%min(rank, MaxWidth-1)
		r0 := int(offRaw) % (rank - w + 1)
		checkFiber(t, sc, scalarStrip, r0, r0+w)
	})
}

func TestHelpersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(40)
		pad := rng.Intn(3)
		mk := func() []float64 {
			s := make([]float64, n+pad)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			return s
		}
		acc, row, scale := mk(), mk(), mk()
		v := rng.NormFloat64()

		got, want := slices.Clone(acc), slices.Clone(acc)
		Axpy(got[:n], v, row)
		for q := 0; q < n; q++ {
			want[q] += v * row[q]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Axpy mismatch at n=%d", n)
		}

		got, want = slices.Clone(acc), slices.Clone(acc)
		ScaleAdd(got[:n], row, scale)
		for q := 0; q < n; q++ {
			want[q] += row[q] * scale[q]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ScaleAdd mismatch at n=%d", n)
		}

		got, want = slices.Clone(acc), slices.Clone(acc)
		KRPAxpy(got[:n], v, row, scale)
		for q := 0; q < n; q++ {
			want[q] += v * row[q] * scale[q]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("KRPAxpy mismatch at n=%d", n)
		}

		got, want = slices.Clone(acc), slices.Clone(acc)
		Add(got[:n], row)
		for q := 0; q < n; q++ {
			want[q] += row[q]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Add mismatch at n=%d", n)
		}
	}
}
