package nmode_test

// Order-4 cross-worker-count equivalence: 2, 3 and 4 workers must
// produce MTTKRP outputs bit-identical to 1 worker on Poisson and
// clustered-skew tensors, for both the unblocked (stealing root-range)
// and blocked (shared layer queue) work units. This is the N-mode half
// of the matrix pinned for order 3 in internal/core/sched_test.go; it
// lives in an external test package because internal/gen imports
// internal/nmode.

import (
	"fmt"
	"math/rand"
	"testing"

	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
)

func randFactors(seed int64, dims []int, mode, rank int) ([]*la.Matrix, *la.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*la.Matrix, len(dims))
	for m := range dims {
		if m == mode {
			continue
		}
		f := la.NewMatrix(dims[m], rank)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		factors[m] = f
	}
	return factors, la.NewMatrix(dims[mode], rank)
}

func equivTensors(t *testing.T) map[string]*nmode.Tensor {
	t.Helper()
	dims := []int{18, 14, 12, 10}
	poisson, err := gen.PoissonN(gen.PoissonNParams{Dims: dims, Events: 5000}, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Few large clusters holding most of the mass: the skewed shape work
	// stealing exists for.
	clustered, err := gen.ClusteredN(gen.ClusteredNParams{
		Dims: dims, NNZ: 4000, Clusters: 3, ClusterFrac: 0.9, ClusterSide: 0.3,
	}, 22)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*nmode.Tensor{"poisson4": poisson, "clustered4": clustered}
}

// TestSchedulerEquivalenceOrder4 pins bit-identity of 2, 3 and 4
// workers, and of a 4-worker executor re-sized to 3 and then 2,
// against 1 worker across the unblocked and blocked paths, with and
// without rank strips, on two output modes.
func TestSchedulerEquivalenceOrder4(t *testing.T) {
	const rank = 19
	configs := []struct {
		name string
		opts nmode.Options
	}{
		{"unblocked", nmode.Options{}},
		{"unblocked-strips", nmode.Options{RankBlockCols: 8}},
		{"blocked", nmode.Options{Grid: []int{3, 2, 1, 2}}},
		{"blocked-strips", nmode.Options{Grid: []int{3, 2, 1, 2}, RankBlockCols: 8}},
	}
	for name, x := range equivTensors(t) {
		for _, cfg := range configs {
			for _, mode := range []int{0, 2} {
				factors, want := randFactors(int64(100+mode), x.Dims, mode, rank)
				opts := cfg.opts
				opts.Workers = 1
				e1, err := nmode.NewExecutor(x, mode, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := e1.Run(factors, want); err != nil {
					t.Fatal(err)
				}
				check := func(e *nmode.Executor, row string) {
					t.Helper()
					got := la.NewMatrix(x.Dims[mode], rank)
					for run := 0; run < 4; run++ {
						if err := e.Run(factors, got); err != nil {
							t.Fatal(err)
						}
						for i, v := range got.Data {
							if v != want.Data[i] {
								t.Fatalf("%s/%s mode %d %s run %d: output differs from 1 worker at %d: %v != %v",
									name, cfg.name, mode, row, run, i, v, want.Data[i])
							}
						}
					}
				}
				for workers := 2; workers <= 4; workers++ {
					opts.Workers = workers
					e, err := nmode.NewExecutor(x, mode, opts)
					if err != nil {
						t.Fatal(err)
					}
					check(e, fmt.Sprintf("workers=%d", workers))
					if workers < 4 {
						continue
					}
					for _, w := range []int{3, 2} {
						if err := e.SetWorkers(w); err != nil {
							t.Fatal(err)
						}
						check(e, fmt.Sprintf("resized 4->%d", w))
					}
				}
			}
		}
	}
}
