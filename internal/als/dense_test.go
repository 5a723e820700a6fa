package als

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"spblock/internal/la"
	"spblock/internal/testutil/raceflag"
)

// coordKernel is an allocation-free MTTKRP over explicit coordinates:
// entry e sits at (coords[0][e], ..., coords[n-1][e]).
type coordKernel struct {
	dims   []int
	coords [][]int
	vals   []float64
}

func (k *coordKernel) Dims() []int { return k.dims }

func (k *coordKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	out.Zero()
	for e, v := range k.vals {
		row := out.Row(k.coords[mode][e])
		for q := range row {
			w := v
			for m := range k.dims {
				if m != mode {
					w *= factors[m].At(k.coords[m][e], q)
				}
			}
			row[q] += w
		}
	}
	return nil
}

// workersKernel reports a fixed worker count to Run (WorkerCounter).
type workersKernel struct {
	*coordKernel
	workers int
}

func (k workersKernel) Workers() int { return k.workers }

// randomTensor is a seeded tensor keeping each cell with probability
// one half, and its norm.
func randomTensor(dims []int, seed int64) (*coordKernel, float64) {
	rng := rand.New(rand.NewSource(seed))
	k := &coordKernel{dims: dims, coords: make([][]int, len(dims))}
	total := 1
	for _, d := range dims {
		total *= d
	}
	var norm2 float64
	for p := 0; p < total; p++ {
		if rng.Intn(2) == 0 {
			continue
		}
		rem := p
		for m := len(dims) - 1; m >= 0; m-- {
			k.coords[m] = append(k.coords[m], rem%dims[m])
			rem /= dims[m]
		}
		v := rng.Float64()
		k.vals = append(k.vals, v)
		norm2 += v * v
	}
	return k, math.Sqrt(norm2)
}

// randomDense is a dense kernel over uniform random values, and its
// norm: unlike rankOne, a low-rank model never fits it exactly.
func randomDense(dims []int, seed int64) (*denseKernel, float64) {
	rng := rand.New(rand.NewSource(seed))
	total := 1
	for _, d := range dims {
		total *= d
	}
	k := &denseKernel{dims: dims, vals: make([]float64, total), failMode: -1}
	var norm2 float64
	for p := range k.vals {
		k.vals[p] = rng.Float64()
		norm2 += k.vals[p] * k.vals[p]
	}
	return k, math.Sqrt(norm2)
}

// neverConverged keeps a decomposition at its sweep budget.
var neverConverged = math.SmallestNonzeroFloat64

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRunBitIdenticalAcrossWorkers: the dense phase runs on the
// kernel's worker count without changing a bit of the result. At rank
// 32 and 2000 rows the first mode's solve and Gram run on the workers.
func TestRunBitIdenticalAcrossWorkers(t *testing.T) {
	for _, dims := range [][]int{{2000, 8, 6}, {2000, 4, 4, 3}} {
		k, normX := randomTensor(dims, 5)
		cfg := Config{Rank: 32, MaxIters: 2, Tol: neverConverged, Seed: 9, NormX: normX}
		ref, err := Run(workersKernel{k, 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range ref.Fits {
			if math.IsNaN(f) || math.IsInf(f, 0) || (i > 0 && f <= ref.Fits[i-1]) {
				t.Fatalf("order %d: fit trajectory %v is not finite and rising", len(dims), ref.Fits)
			}
		}
		for _, workers := range []int{2, 3} {
			res, err := Run(workersKernel{k, workers}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("order %d, %d workers", len(dims), workers)
			if !sameBits(res.Fits, ref.Fits) {
				t.Fatalf("%s: fits %v, want %v", what, res.Fits, ref.Fits)
			}
			if !sameBits(res.Lambda, ref.Lambda) {
				t.Fatalf("%s: lambda differs", what)
			}
			for m := range res.Factors {
				if !sameBits(res.Factors[m].Data, ref.Factors[m].Data) {
					t.Fatalf("%s: factor %d differs", what, m)
				}
			}
		}
	}
}

// TestRunReadsNoUnwrittenGram: Run builds no initial Gram for mode 0,
// the first mode a sweep updates, and its Grams start as NaN, so any
// read before the first write — on the first sweep or on a sweep
// restarted through a SweepRecoverer — would show as a NaN fit.
func TestRunReadsNoUnwrittenGram(t *testing.T) {
	for _, dims := range [][]int{{6, 5}, {5, 4, 3}, {4, 3, 3, 2}} {
		base, normX := randomDense(dims, 4)
		for _, failures := range []int{0, 1} {
			k := &recoveringKernel{denseKernel: *base, failuresLeft: failures}
			res, err := Run(k, Config{Rank: 2, MaxIters: 4, Tol: neverConverged, Seed: 3,
				NormX: normX, MaxSweepRetries: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Fits) != 4 {
				t.Fatalf("order %d: %d sweeps, want 4", len(dims), len(res.Fits))
			}
			for _, f := range res.Fits {
				if math.IsNaN(f) {
					t.Fatalf("order %d, %d restarts: fit trajectory %v read an unwritten Gram",
						len(dims), res.SweepRetries, res.Fits)
				}
			}
		}
	}
}

// TestRunSteadyStateAllocations: a sweep allocates nothing, so a Run of
// six sweeps allocates as much as a Run of two. The worker count of two
// puts the first mode's dense products on the pool.
func TestRunSteadyStateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, normX := randomTensor([]int{2000, 8, 6}, 6)
	allocs := func(sweeps int) float64 {
		cfg := Config{Rank: 32, MaxIters: sweeps, Tol: neverConverged, Seed: 2, NormX: normX}
		return testing.AllocsPerRun(3, func() {
			res, err := Run(workersKernel{k, 2}, cfg)
			if err != nil || res.Iters != sweeps {
				t.Fatalf("run of %d sweeps: %d sweeps, err %v", sweeps, res.Iters, err)
			}
		})
	}
	if two, six := allocs(2), allocs(6); two != six {
		t.Fatalf("Run allocates %v times over 2 sweeps but %v over 6: a sweep allocates", two, six)
	}
}

// BenchmarkDenseALSPhase times the dense phase of one CP-ALS mode
// update at the als-solve benchmark's rank 128, for its three mode
// lengths: the Gram product, the Cholesky factorisation plus the SPD
// solve, and the column normalisation, each reported in ms per op. The
// Dense runs on GOMAXPROCS workers (set with -cpu).
func BenchmarkDenseALSPhase(b *testing.B) {
	const rank = 128
	for _, rows := range []int{60000, 2250, 80} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := la.NewMatrix(rows, rank)
			for i := range a.Data {
				a.Data[i] = rng.Float64()
			}
			// A well-conditioned SPD system: the Gram of a plus its
			// diagonal.
			v := la.Gram(a)
			for i := 0; i < rank; i++ {
				v.Set(i, i, 2*v.At(i, i))
			}
			x := la.NewMatrix(rows, rank)
			g := la.NewMatrix(rank, rank)
			norms := make([]float64, rank)
			d := la.NewDense(0)
			var gramNS, solveNS, normNS int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				t0 := time.Now()
				d.Gram(g, a)
				t1 := time.Now()
				x.CopyFrom(a)
				t2 := time.Now()
				if err := d.SolveSPD(v, x); err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				d.NormalizeColumns(norms, x)
				t4 := time.Now()
				gramNS += t1.Sub(t0).Nanoseconds()
				solveNS += t3.Sub(t2).Nanoseconds()
				normNS += t4.Sub(t3).Nanoseconds()
			}
			ops := float64(b.N) * 1e6
			b.ReportMetric(float64(gramNS)/ops, "gram_ms/op")
			b.ReportMetric(float64(solveNS)/ops, "solve_ms/op")
			b.ReportMetric(float64(normNS)/ops, "normalize_ms/op")
		})
	}
}
