package core_test

import (
	"math/rand"
	"testing"

	"spblock/internal/core"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/testutil/raceflag"
)

// TestRunSteadyStateAllocations is the regression guard for the pooled
// workspaces: after a warm-up run sizes the workspace for the rank,
// repeated Run calls on the engine must not touch the heap at all — for
// any method and mode, sequential or parallel. CP-ALS calls MTTKRP 10–1000s of
// times per decomposition, so a single allocation here multiplies into
// allocator pressure and GC noise across every decomposition and every
// autotuning measurement.
func TestRunSteadyStateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(1))
	dims := []int{32, 48, 24}
	x := core.RandCOO(rng, dims, 4000)
	const rank = 48
	factors, outs := make([]*la.Matrix, 3), make([]*la.Matrix, 3)
	for m := range factors {
		factors[m] = core.RandMatrix(rng, dims[m], rank)
		outs[m] = la.NewMatrix(dims[m], rank)
	}
	plans := []core.Plan{
		{Method: core.MethodCOO, Workers: 1},
		{Method: core.MethodCOO, Workers: 4},
		{Method: core.MethodSPLATT, Workers: 1},
		{Method: core.MethodSPLATT, Workers: 4},
		{Method: core.MethodRankB, RankBlockCols: 16, Workers: 1},
		{Method: core.MethodRankB, RankBlockCols: 16, Workers: 4},
		{Method: core.MethodRankB, Workers: 1}, // whole rank, no strips
		// One plan per registered kernel width plus the scalar variant:
		// the cached-function-pointer dispatch must stay allocation-free
		// for every entry the registry can resolve.
		{Method: core.MethodRankB, RankBlockCols: 8, Workers: 1},
		{Method: core.MethodRankB, RankBlockCols: 24, Workers: 1},
		{Method: core.MethodRankB, RankBlockCols: 32, Workers: 1},
		{Method: core.MethodRankB, RankBlockCols: 4, Workers: 1}, // below MinWidth: scalar tails
		{Method: core.MethodMB, Grid: [3]int{4, 2, 2}, Workers: 1},
		{Method: core.MethodMB, Grid: [3]int{4, 2, 2}, Workers: 4},
		{Method: core.MethodMBRankB, Grid: [3]int{4, 2, 2}, RankBlockCols: 16, Workers: 1},
		{Method: core.MethodMBRankB, Grid: [3]int{4, 2, 2}, RankBlockCols: 16, Workers: 4},
	}
	// Every registered kernel width rides the stealing queue through the
	// width-specialised rank-strip dispatch.
	for _, w := range kernel.Widths() {
		plans = append(plans, core.Plan{Method: core.MethodRankB, RankBlockCols: w, Workers: 4})
	}
	for _, plan := range plans {
		e, err := core.NewEngine(x, plan)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 3; n++ {
			// Warm-up: the first Run at a rank sizes the pooled buffers
			// and the parallel launches spawn their first goroutines.
			for i := 0; i < 2; i++ {
				if err := e.Run(n, factors, outs[n]); err != nil {
					t.Fatal(err)
				}
			}
			met, err := e.Metrics(n)
			if err != nil {
				t.Fatal(err)
			}
			met.Reset()
			allocs := testing.AllocsPerRun(20, func() {
				if err := e.Run(n, factors, outs[n]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v mode %d: %.2f allocs per steady-state Run, want 0", plan, n, allocs)
			}
			// The instrumentation layer must have been *collecting*
			// during those zero-alloc runs — an accidentally-dead
			// collector would pass the alloc check trivially.
			snap := met.Snapshot()
			if snap.Runs < 20 {
				t.Errorf("%v mode %d: collector saw %d runs during the alloc window", plan, n, snap.Runs)
			}
			if snap.NNZ <= 0 || snap.BytesEst <= 0 || snap.WallNS <= 0 {
				t.Errorf("%v mode %d: degenerate counters while collecting: %+v", plan, n, snap)
			}
			var workerNS int64
			for _, ns := range snap.WorkerNS {
				workerNS += ns
			}
			if workerNS <= 0 {
				t.Errorf("%v mode %d: no worker time recorded: %v", plan, n, snap.WorkerNS)
			}
		}
	}
}

// TestPromotedAdaptiveAllocationFree pins the stealing path across a
// resize: a 4-worker SPLATT engine, re-sized to 3 workers, claims and
// steals chunks and counts steals on every Run, and its steady-state
// Runs must still never touch the heap.
func TestPromotedAdaptiveAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(3))
	dims := []int{32, 48, 24}
	x := core.RandCOO(rng, dims, 4000)
	const rank = 32
	f := []*la.Matrix{nil, core.RandMatrix(rng, dims[1], rank), core.RandMatrix(rng, dims[2], rank)}
	out := la.NewMatrix(dims[0], rank)
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 3} {
		if err := e.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := e.Run(0, f, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := e.Run(0, f, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("stealing SPLATT at %d workers: %.2f allocs per steady-state Run, want 0", workers, allocs)
		}
	}
}

// TestRankChangeResizesWorkspace: running the same executor at a new
// rank must re-size the pooled buffers (one-time allocations), then go
// allocation-free again — and stay correct at both ranks.
func TestRankChangeResizesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []int{16, 20, 12}
	x := core.RandCOO(rng, dims, 800)
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodRankB, RankBlockCols: 16, Workers: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{48, 17, 48} {
		b := core.RandMatrix(rng, dims[1], rank)
		c := core.RandMatrix(rng, dims[2], rank)
		got := la.NewMatrix(dims[0], rank)
		want := la.NewMatrix(dims[0], rank)
		if err := core.Reference(x, b, c, want); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
				t.Fatal(err)
			}
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("rank %d after resize: differs from oracle by %v", rank, d)
		}
	}
}

// TestNegativeWorkersRejected covers the Plan.Workers validation: a
// negative degree is a caller bug, not a request for GOMAXPROCS.
func TestNegativeWorkersRejected(t *testing.T) {
	x := nmode.NewTensor([]int{4, 4, 4}, 0)
	x.Append([]nmode.Index{1, 1, 1}, 1)
	b := la.NewMatrix(4, 2)
	c := la.NewMatrix(4, 2)
	out := la.NewMatrix(4, 2)
	for _, method := range []core.Method{core.MethodCOO, core.MethodSPLATT, core.MethodMB, core.MethodRankB, core.MethodMBRankB} {
		plan := core.Plan{Method: method, Grid: [3]int{1, 1, 1}, Workers: -1}
		if _, err := core.NewEngine(x, plan); err == nil {
			t.Errorf("%v: NewEngine accepted Workers=-1", method)
		}
		if err := mttkrp(x, b, c, out, plan); err == nil {
			t.Errorf("%v: MTTKRP accepted Workers=-1", method)
		}
	}
	// Workers 0 (GOMAXPROCS) and positive degrees stay valid.
	for _, w := range []int{0, 1, 3} {
		if _, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: w}); err != nil {
			t.Errorf("Workers=%d rejected: %v", w, err)
		}
	}
}
