package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
)

// schedTestTensors returns the equivalence corpus: a mostly-uniform
// Poisson tensor and a clustered tensor whose dense sub-boxes skew the
// per-slice nonzero counts — the case work stealing exists for.
func schedTestTensors(t *testing.T) map[string]*nmode.Tensor {
	t.Helper()
	pois, err := gen.PoissonN(gen.PoissonNParams{Dims: []int{40, 30, 25}, Events: 6000}, 11)
	if err != nil {
		t.Fatal(err)
	}
	clus, err := gen.ClusteredN(gen.ClusteredNParams{
		Dims: []int{40, 30, 25}, NNZ: 6000, Clusters: 3, ClusterFrac: 0.9,
	}, 12)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*nmode.Tensor{"poisson": pois, "clustered": clus}
}

func bitIdentical(a, b *la.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// TestSchedulerEquivalence is the cross-worker-count matrix: for every
// tree-based method, runs on 2, 3 and 4 stealing workers, and on an
// engine built at 4 workers and re-sized to 3 and then 2, must produce
// outputs bit-identical to the 1-worker run. This is not a tolerance
// check — distinct roots and layers own disjoint output rows and each
// unit's computation is self-contained, so which worker runs a chunk
// must not move a single bit. Run under -race in CI, this also
// exercises the steal claim protocol against the kernel bodies.
func TestSchedulerEquivalence(t *testing.T) {
	const rank = 19 // deliberately not a multiple of any kernel width
	methods := []core.Plan{
		{Method: core.MethodSPLATT},
		{Method: core.MethodRankB, RankBlockCols: 8},
		{Method: core.MethodMB, Grid: [3]int{6, 2, 2}},
		{Method: core.MethodMBRankB, Grid: [3]int{6, 2, 2}, RankBlockCols: 8},
	}
	for name, x := range schedTestTensors(t) {
		rng := rand.New(rand.NewSource(99))
		b := core.RandMatrix(rng, x.Dims[1], rank)
		c := core.RandMatrix(rng, x.Dims[2], rank)
		for _, plan := range methods {
			plan.Workers = 1
			ref := la.NewMatrix(x.Dims[0], rank)
			if err := mttkrp(x, b, c, ref, plan); err != nil {
				t.Fatal(err)
			}
			check := func(e *nmode.Engine, row string) {
				t.Helper()
				got := la.NewMatrix(x.Dims[0], rank)
				for run := 0; run < 4; run++ {
					if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
						t.Fatal(err)
					}
					if !bitIdentical(got, ref) {
						t.Fatalf("%s %v %s run %d: output differs from 1 worker", name, plan, row, run)
					}
				}
			}
			for workers := 2; workers <= 4; workers++ {
				plan.Workers = workers
				e, err := core.NewEngine(x, plan, 0)
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

// metricsOf is mode 0's metrics collector.
func metricsOf(t *testing.T, e *nmode.Engine) *metrics.Collector {
	t.Helper()
	m, err := e.Metrics(0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSetWorkersValidatesAndResizes: negative counts are rejected, and
// a resize rebuilds the runner set and metrics buckets.
func TestSetWorkersValidatesAndResizes(t *testing.T) {
	x := schedTestTensors(t)["poisson"]
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetWorkers(-1); err == nil {
		t.Fatal("SetWorkers(-1) accepted")
	}
	const rank = 8
	rng := rand.New(rand.NewSource(23))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := mttkrp(x, b, c, ref, core.Plan{Method: core.MethodSPLATT, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	out := la.NewMatrix(x.Dims[0], rank)
	for _, w := range []int{2, 1, 3} {
		if err := e.SetWorkers(w); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(out, ref) {
			t.Fatalf("workers=%d: output differs", w)
		}
	}
}

// TestAdaptiveRatchetSurvivesSetWorkers: a mid-life SetWorkers re-sizes
// the per-worker metrics buckets along with the runners. Sustained
// synthetic skew fed into the re-sized buckets (a large busy-time delta
// on worker 0 before every run) must neither fall outside the buckets
// nor move a bit of the stealing engine's output on the clustered
// tensor.
func TestAdaptiveRatchetSurvivesSetWorkers(t *testing.T) {
	x := schedTestTensors(t)["clustered"]
	const rank = 16
	rng := rand.New(rand.NewSource(21))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := mttkrp(x, b, c, ref, core.Plan{Method: core.MethodSPLATT, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(x.Dims[0], rank)
	if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil { // sizes the buckets at 4
		t.Fatal(err)
	}
	if err := e.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	met := metricsOf(t, e)
	if w := met.Workers(); w != 3 {
		t.Fatalf("metrics buckets after SetWorkers(3) = %d", w)
	}
	for run := 0; run < 8; run++ {
		met.AddWorkerTime(0, 500*time.Millisecond)
		if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, ref) {
			t.Fatalf("post-resize run %d: output differs", run)
		}
	}
	if snap := met.Snapshot(); len(snap.WorkerNS) != 3 || snap.WorkerNS[0] < int64(8*500*time.Millisecond) {
		t.Fatalf("re-sized buckets lost the skew: %v", snap.WorkerNS)
	}
}

// TestCOONeverSteals: COO's privatised reduction is order-sensitive,
// so its ordered split hands each of the 4 workers one fixed range and
// never steals: repeated runs count no steal and stay bit-identical.
func TestCOONeverSteals(t *testing.T) {
	x := schedTestTensors(t)["clustered"]
	const rank = 8
	rng := rand.New(rand.NewSource(6))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodCOO, Workers: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := metricsOf(t, e).Workers(); w != 4 {
		t.Fatalf("COO engine runs %d workers, want 4", w)
	}
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := e.Run(0, []*la.Matrix{nil, b, c}, ref); err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(x.Dims[0], rank)
	for run := 0; run < 8; run++ {
		if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, ref) {
			t.Fatalf("run %d: COO output differs from its first run", run)
		}
	}
	if s := metricsOf(t, e).Snapshot().Steals(); s != 0 {
		t.Fatalf("COO stole %d chunks", s)
	}
}
