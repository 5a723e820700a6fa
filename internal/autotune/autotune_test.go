package autotune

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"spblock/internal/core"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func randCOO(rng *rand.Rand, dims []int, nnz int) *nmode.Tensor {
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.Float64()+0.1)
	}
	tensor.Dedup(t)
	return t
}

func TestStrategyString(t *testing.T) {
	if StrategyHeuristic.String() != "heuristic" ||
		StrategyModel.String() != "model" ||
		StrategyExhaustive.String() != "exhaustive" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should render")
	}
}

func TestTuneValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randCOO(rng, []int{8, 8, 8}, 50)
	if _, err := Tune(x, 0, core.MethodMB, StrategyModel, Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := Tune(x, 16, core.MethodMB, Strategy(42), Options{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	bad := nmode.NewTensor([]int{2, 2, 2}, 0)
	bad.Append([]nmode.Index{9, 0, 0}, 1)
	if _, err := Tune(bad, 16, core.MethodMB, StrategyModel, Options{}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestSampleKeepsSmallTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randCOO(rng, []int{10, 10, 10}, 100)
	if got := sample(x, 1000, 1); got != x {
		t.Fatal("small tensor should not be copied")
	}
	big := randCOO(rng, []int{50, 50, 50}, 20000)
	sub := sample(big, 2000, 1)
	if sub.NNZ() == 0 || sub.NNZ() > 4000 {
		t.Fatalf("sample size %d, want about 2000", sub.NNZ())
	}
	if !slices.Equal(sub.Dims, big.Dims) {
		t.Fatal("sample changed dims")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelCostOrdersKernelsSensibly(t *testing.T) {
	// On a tensor whose B factor dwarfs the simulated cache, the model
	// must price a sensible rank-blocked plan below the unblocked one.
	rng := rand.New(rand.NewSource(3))
	x := randCOO(rng, []int{32, 2048, 32}, 30000)
	rank := 128
	cost, err := ModelCost(x, rank, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	splatt := cost(core.Plan{Method: core.MethodSPLATT, Grid: [3]int{1, 1, 1}})
	blocked := cost(core.Plan{Method: core.MethodMB, Grid: [3]int{1, 8, 1}})
	if splatt <= 0 || blocked <= 0 {
		t.Fatal("non-positive model costs")
	}
	if blocked >= splatt {
		t.Fatalf("model prices MB (%v) above SPLATT (%v) on a cache-busting tensor", blocked, splatt)
	}
	// Unknown methods are priced out.
	if c := cost(core.Plan{Method: core.MethodCOO}); c < 1e200 {
		t.Fatalf("unsupported method got finite cost %v", c)
	}
}

func TestModelTuneFindsTrafficReducingPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randCOO(rng, []int{32, 2048, 32}, 30000)
	rank := 128
	res, err := Tune(x, rank, core.MethodMBRankB, StrategyModel, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Fatal("no candidates evaluated")
	}
	if res.Plan.Method != core.MethodMBRankB {
		t.Fatalf("method = %v", res.Plan.Method)
	}
	// The tensor's B footprint (2048x128x8B = 2MB) demands blocking:
	// the tuned plan must not be the do-nothing plan.
	if res.Plan.Grid == [3]int{1, 1, 1} && res.Plan.RankBlockCols == 0 {
		t.Fatalf("model tuning chose the unblocked plan: %v", res.Plan)
	}
	// And the plan must execute correctly.
	b := la.NewMatrix(x.Dims[1], rank)
	c := la.NewMatrix(x.Dims[2], rank)
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	for i := range c.Data {
		c.Data[i] = rng.Float64()
	}
	run := func(plan core.Plan, out *la.Matrix) {
		t.Helper()
		e, err := core.NewEngine(x, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
			t.Fatal(err)
		}
	}
	want := la.NewMatrix(x.Dims[0], rank)
	run(core.Plan{Method: core.MethodSPLATT, Workers: 1}, want)
	got := la.NewMatrix(x.Dims[0], rank)
	run(res.Plan, got)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("tuned plan wrong by %v", d)
	}
}

func TestExhaustiveIsTheCeiling(t *testing.T) {
	// The greedy model search must come within 25% of the exhaustive
	// optimum (same cost model, same sample) on a blocking-friendly
	// tensor — the quality claim behind using the cheap search.
	rng := rand.New(rand.NewSource(5))
	x := randCOO(rng, []int{32, 1024, 32}, 20000)
	rank := 64
	opts := Options{Seed: 3, MaxGridSteps: 3}

	exh, err := Tune(x, rank, core.MethodMBRankB, StrategyExhaustive, opts)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Tune(x, rank, core.MethodMBRankB, StrategyModel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if exh.Evaluated <= greedy.Evaluated {
		t.Fatalf("exhaustive evaluated %d <= greedy %d", exh.Evaluated, greedy.Evaluated)
	}
	cost, err := ModelCost(x, rank, opts)
	if err != nil {
		t.Fatal(err)
	}
	ce, cg := cost(exh.Plan), cost(greedy.Plan)
	if cg > ce*1.25 {
		t.Fatalf("greedy plan %v costs %v, exhaustive %v costs %v (>25%% gap)",
			greedy.Plan, cg, exh.Plan, ce)
	}
	t.Logf("exhaustive %v (%.3g) vs greedy %v (%.3g), %d vs %d evals",
		exh.Plan, ce, greedy.Plan, cg, exh.Evaluated, greedy.Evaluated)
}

func TestModelStripWalkMatchesExhaustive(t *testing.T) {
	// Regression: tuneWithModel walked the rank strips as bs *= 2
	// (16, 32, 64, ...) while the exhaustive sweep walks register-width
	// increments (16, 32, 48, ...), so the model could never evaluate —
	// let alone pick — the in-between widths, and at rank <= 16 it
	// evaluated no strip at all. The two strategies share one cost model
	// and one sample, so on a pure rank-blocking search the model's
	// chosen plan must now price exactly at the exhaustive optimum.
	rng := rand.New(rand.NewSource(7))
	x := randCOO(rng, []int{32, 1024, 32}, 20000)
	rank := 64
	opts := Options{Seed: 4}

	exh, err := Tune(x, rank, core.MethodRankB, StrategyExhaustive, opts)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Tune(x, rank, core.MethodRankB, StrategyModel, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The model must have walked the full register-width ladder.
	seen := map[int]bool{}
	for _, tr := range mod.Trials {
		seen[tr.Plan.RankBlockCols] = true
	}
	for bs := core.RegisterBlockWidth; bs < rank; bs += core.RegisterBlockWidth {
		if !seen[bs] {
			t.Fatalf("model never evaluated strip width %d (trials: %v)", bs, seen)
		}
	}
	cost, err := ModelCost(x, rank, opts)
	if err != nil {
		t.Fatal(err)
	}
	ce, cm := cost(exh.Plan), cost(mod.Plan)
	if cm != ce {
		t.Fatalf("model plan %v costs %v, exhaustive plan %v costs %v — same ladder, same model, must agree",
			mod.Plan, cm, exh.Plan, ce)
	}
}

func TestModelEvaluatesStripAtSmallRank(t *testing.T) {
	// Regression: with bs *= 2; bs < rank, a rank <= RegisterBlockWidth
	// search body never ran, so StrategyModel on MethodRankB degenerated
	// to pricing only the unstripped baseline.
	rng := rand.New(rand.NewSource(8))
	x := randCOO(rng, []int{32, 256, 32}, 5000)
	rank := core.RegisterBlockWidth
	res, err := Tune(x, rank, core.MethodRankB, StrategyModel, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var stripTrials int
	for _, tr := range res.Trials {
		if tr.Plan.RankBlockCols > 0 {
			stripTrials++
		}
	}
	if stripTrials == 0 {
		t.Fatalf("rank %d search evaluated no strip candidate (%d trials)", rank, len(res.Trials))
	}
}

func TestTuneNormalizesWorkers(t *testing.T) {
	// Regression: withDefaults never defaulted Workers, so returned plans
	// carried Workers: 0 while the heuristic's measurements ran at
	// GOMAXPROCS — re-running the tuned plan could use a different
	// parallelism than the one that was actually measured.
	rng := rand.New(rand.NewSource(9))
	x := randCOO(rng, []int{16, 32, 16}, 800)
	want := runtime.GOMAXPROCS(0)
	for _, s := range []Strategy{StrategyHeuristic, StrategyModel, StrategyExhaustive} {
		res, err := Tune(x, 32, core.MethodRankB, s, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Plan.Workers != want {
			t.Fatalf("%v: plan.Workers = %d, want GOMAXPROCS %d", s, res.Plan.Workers, want)
		}
	}
	// An explicit worker count passes through untouched.
	res, err := Tune(x, 32, core.MethodRankB, StrategyModel, Options{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Workers != 2 {
		t.Fatalf("plan.Workers = %d, want explicit 2", res.Plan.Workers)
	}
}

func TestSampleNeverOutgrowsTarget(t *testing.T) {
	// Regression: the Bernoulli draw has expected count == target, so
	// about half of all seeds used to overflow the pre-sized capacity and
	// silently reallocate; the draw is now capped at target.
	rng := rand.New(rand.NewSource(10))
	big := randCOO(rng, []int{50, 50, 50}, 30000)
	for seed := int64(0); seed < 20; seed++ {
		sub := sample(big, 1000, seed)
		if sub.NNZ() > 1000 {
			t.Fatalf("seed %d: sample has %d nonzeros, cap is 1000", seed, sub.NNZ())
		}
		if !slices.Equal(sub.Dims, big.Dims) {
			t.Fatalf("seed %d: sample changed dims", seed)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestHeuristicStrategyDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randCOO(rng, []int{16, 32, 16}, 800)
	res, err := Tune(x, 32, core.MethodRankB, StrategyHeuristic, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyHeuristic {
		t.Fatalf("strategy = %v", res.Strategy)
	}
	if res.Plan.Method != core.MethodRankB {
		t.Fatalf("method = %v", res.Plan.Method)
	}
}

func TestEnumerateGridsBounds(t *testing.T) {
	grids := enumerateGrids([]int{3, 100, 100}, 3)
	for _, g := range grids {
		if g[0] > 3 || g[1] > 8 || g[2] > 8 {
			t.Fatalf("grid %v out of bounds", g)
		}
	}
	// Mode 0 allows 1, 2; modes 1-2 allow 1, 2, 4, 8.
	if len(grids) != 2*4*4 {
		t.Fatalf("got %d grids, want 32", len(grids))
	}
}

func TestHeuristicAndModelWalkSameStripLadder(t *testing.T) {
	// Regression for the core/heuristic.go ladder: its old
	// `bs < rank` loop never evaluated a strip at bs == rank, while
	// the model walk (fixed earlier) did — so under a cost that keeps
	// improving up to the full rank the two searches disagreed on the
	// winner. Both ladders now come from kernel.StripCandidates; under
	// a strictly decreasing cost the heuristic's stopping rule never
	// fires, so both must visit exactly the baseline plus every
	// registry candidate, full-rank rung included.
	rank := 48
	decreasing := func(p core.Plan) float64 {
		if p.RankBlockCols == 0 {
			return 1000
		}
		return 1000 - float64(p.RankBlockCols)
	}
	plan, trials, err := core.AutotuneWithCost([]int{16, 16, 16}, rank, core.MethodRankB,
		core.Plan{Method: core.MethodRankB}, decreasing, core.AutotuneOptions{Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	heuristicSeen := map[int]bool{}
	for _, tr := range trials {
		heuristicSeen[tr.Plan.RankBlockCols] = true
	}

	rng := rand.New(rand.NewSource(11))
	x := randCOO(rng, []int{16, 256, 16}, 4000)
	mod, err := Tune(x, rank, core.MethodRankB, StrategyModel, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	modelSeen := map[int]bool{}
	for _, tr := range mod.Trials {
		modelSeen[tr.Plan.RankBlockCols] = true
	}

	want := map[int]bool{0: true}
	for _, bs := range kernel.StripCandidates(rank) {
		want[bs] = true
	}
	if !maps.Equal(heuristicSeen, want) {
		t.Fatalf("heuristic visited %v, want %v", heuristicSeen, want)
	}
	if !maps.Equal(modelSeen, want) {
		t.Fatalf("model visited %v, want %v", modelSeen, want)
	}
	if plan.RankBlockCols != rank {
		t.Fatalf("heuristic best bs = %d under strictly improving cost, want the full-rank rung %d",
			plan.RankBlockCols, rank)
	}
}
