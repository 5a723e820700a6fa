package core

import (
	"math/rand"
	"testing"

	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/sched"
	"spblock/internal/tensor"
	"spblock/internal/testutil/raceflag"
)

// TestRunSteadyStateAllocations is the regression guard for the pooled
// workspaces: after a warm-up run sizes the workspace for the rank,
// repeated Executor.Run calls must not touch the heap at all — for any
// method, sequential or parallel. CP-ALS calls MTTKRP 10–1000s of
// times per decomposition, so a single allocation here multiplies into
// allocator pressure and GC noise across every decomposition and every
// autotuning measurement.
func TestRunSteadyStateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(1))
	dims := tensor.Dims{32, 48, 24}
	x := randCOO(rng, dims, 4000)
	const rank = 48
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)
	out := la.NewMatrix(dims[0], rank)
	plans := []Plan{
		{Method: MethodCOO, Workers: 1},
		{Method: MethodCOO, Workers: 4},
		{Method: MethodSPLATT, Workers: 1},
		{Method: MethodSPLATT, Workers: 4},
		{Method: MethodRankB, RankBlockCols: 16, Workers: 1},
		{Method: MethodRankB, RankBlockCols: 16, Workers: 4},
		{Method: MethodRankB, RankBlockCols: 16, NoStripPacking: true, Workers: 1},
		{Method: MethodRankB, Workers: 1}, // whole rank, no strips
		// One plan per registered kernel width plus the scalar variant:
		// the cached-function-pointer dispatch must stay allocation-free
		// for every entry the registry can resolve.
		{Method: MethodRankB, RankBlockCols: 8, Workers: 1},
		{Method: MethodRankB, RankBlockCols: 24, Workers: 1},
		{Method: MethodRankB, RankBlockCols: 32, Workers: 1},
		{Method: MethodRankB, RankBlockCols: 4, Workers: 1}, // below MinWidth: scalar tails
		{Method: MethodMB, Grid: [3]int{4, 2, 2}, Workers: 1},
		{Method: MethodMB, Grid: [3]int{4, 2, 2}, Workers: 4},
		{Method: MethodMBRankB, Grid: [3]int{4, 2, 2}, RankBlockCols: 16, Workers: 1},
		{Method: MethodMBRankB, Grid: [3]int{4, 2, 2}, RankBlockCols: 16, Workers: 4},
		// The stealing and adaptive paths must hold the same zero-alloc
		// contract: the chunk claims are atomic ops over layouts prebuilt
		// in the cold half, and adaptive promotion is a flag flip.
		{Method: MethodSPLATT, Workers: 4, Sched: sched.PolicySteal},
		{Method: MethodSPLATT, Workers: 4, Sched: sched.PolicyAdaptive},
		{Method: MethodMB, Grid: [3]int{4, 2, 2}, Workers: 4, Sched: sched.PolicySteal},
		{Method: MethodMBRankB, Grid: [3]int{4, 2, 2}, RankBlockCols: 16, Workers: 4, Sched: sched.PolicySteal},
		{Method: MethodCOO, Workers: 4, Sched: sched.PolicyAdaptive}, // resolves static, must stay clean
	}
	// Every registered kernel width rides the stealing queue through the
	// width-specialised rank-strip dispatch.
	for _, w := range kernel.Widths() {
		plans = append(plans, Plan{Method: MethodRankB, RankBlockCols: w, Workers: 4, Sched: sched.PolicySteal})
	}
	for _, plan := range plans {
		e, err := NewExecutor(x, plan)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up: the first Run at a rank sizes the pooled buffers and
		// the parallel launches spawn their first goroutines.
		for i := 0; i < 2; i++ {
			if err := e.Run(b, c, out); err != nil {
				t.Fatal(err)
			}
		}
		e.Metrics().Reset()
		allocs := testing.AllocsPerRun(20, func() {
			if err := e.Run(b, c, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.2f allocs per steady-state Run, want 0", plan, allocs)
		}
		// The instrumentation layer must have been *collecting* during
		// those zero-alloc runs — an accidentally-dead collector would
		// pass the alloc check trivially.
		snap := e.Metrics().Snapshot()
		if snap.Runs < 20 {
			t.Errorf("%v: collector saw %d runs during the alloc window", plan, snap.Runs)
		}
		if snap.NNZ <= 0 || snap.BytesEst <= 0 || snap.WallNS <= 0 {
			t.Errorf("%v: degenerate counters while collecting: %+v", plan, snap)
		}
		var workerNS int64
		for _, ns := range snap.WorkerNS {
			workerNS += ns
		}
		if workerNS <= 0 {
			t.Errorf("%v: no worker time recorded: %v", plan, snap.WorkerNS)
		}
	}
}

// TestPromotedAdaptiveAllocationFree pins the adaptive path's second
// half: after the controller's promotion flips the queue to the
// stealing layout, steady-state Runs (now claiming and stealing
// chunks, counting steals, and feeding the quiescent controller) must
// still never touch the heap.
func TestPromotedAdaptiveAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(3))
	dims := tensor.Dims{32, 48, 24}
	x := randCOO(rng, dims, 4000)
	const rank = 32
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)
	out := la.NewMatrix(dims[0], rank)
	e, err := NewExecutor(x, Plan{Method: MethodSPLATT, Workers: 4, Sched: sched.PolicyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.Run(b, c, out); err != nil {
			t.Fatal(err)
		}
	}
	promote(t, e, func() {
		if err := e.Run(b, c, out); err != nil {
			t.Fatal(err)
		}
	})
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.Run(b, c, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("promoted adaptive: %.2f allocs per steady-state Run, want 0", allocs)
	}
	if !e.ws.pool.Stealing() {
		t.Fatal("promotion did not stick")
	}
}

// TestRankChangeResizesWorkspace: running the same executor at a new
// rank must re-size the pooled buffers (one-time allocations), then go
// allocation-free again — and stay correct at both ranks.
func TestRankChangeResizesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := tensor.Dims{16, 20, 12}
	x := randCOO(rng, dims, 800)
	e, err := NewExecutor(x, Plan{Method: MethodRankB, RankBlockCols: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{48, 17, 48} {
		b := randMatrix(rng, dims[1], rank)
		c := randMatrix(rng, dims[2], rank)
		got := la.NewMatrix(dims[0], rank)
		want := la.NewMatrix(dims[0], rank)
		if err := Reference(x, b, c, want); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := e.Run(b, c, got); err != nil {
				t.Fatal(err)
			}
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("rank %d after resize: differs from oracle by %v", rank, d)
		}
	}
}

// TestRunReleasesOperands: a cached executor outlives the jobs that
// run it, so after Run its workspace must not keep the caller's factor
// and output matrices reachable — sequential or parallel, stripped or
// not.
func TestRunReleasesOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := tensor.Dims{16, 20, 12}
	x := randCOO(rng, dims, 800)
	const rank = 24
	b := randMatrix(rng, dims[1], rank)
	c := randMatrix(rng, dims[2], rank)
	out := la.NewMatrix(dims[0], rank)
	for _, plan := range []Plan{
		{Method: MethodCOO, Workers: 2},
		{Method: MethodSPLATT, Workers: 1},
		{Method: MethodMB, Grid: [3]int{2, 2, 2}, Workers: 2},
		{Method: MethodRankB, RankBlockCols: 16, Workers: 2},
		{Method: MethodMBRankB, Grid: [3]int{2, 1, 2}, RankBlockCols: 8, Workers: 1},
	} {
		e, err := NewExecutor(x, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(b, c, out); err != nil {
			t.Fatal(err)
		}
		if e.ws.b != nil || e.ws.c != nil || e.ws.out != nil {
			t.Errorf("%v: workspace still holds the operands after Run", plan)
		}
	}
}

// TestNegativeWorkersRejected covers the Plan.Workers validation: a
// negative degree is a caller bug, not a request for GOMAXPROCS.
func TestNegativeWorkersRejected(t *testing.T) {
	x := tensor.NewCOO(tensor.Dims{4, 4, 4}, 0)
	x.Append(1, 1, 1, 1)
	b := la.NewMatrix(4, 2)
	c := la.NewMatrix(4, 2)
	out := la.NewMatrix(4, 2)
	for _, method := range []Method{MethodCOO, MethodSPLATT, MethodMB, MethodRankB, MethodMBRankB} {
		plan := Plan{Method: method, Grid: [3]int{1, 1, 1}, Workers: -1}
		if _, err := NewExecutor(x, plan); err == nil {
			t.Errorf("%v: NewExecutor accepted Workers=-1", method)
		}
		if err := MTTKRP(x, b, c, out, plan); err == nil {
			t.Errorf("%v: MTTKRP accepted Workers=-1", method)
		}
	}
	// Workers 0 (GOMAXPROCS) and positive degrees stay valid.
	for _, w := range []int{0, 1, 3} {
		if _, err := NewExecutor(x, Plan{Method: MethodSPLATT, Workers: w}); err != nil {
			t.Errorf("Workers=%d rejected: %v", w, err)
		}
	}
}
