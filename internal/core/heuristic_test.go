package core

import (
	"math"
	"math/rand"
	"testing"

	"spblock/internal/nmode"
)

func TestMBModeOrder(t *testing.T) {
	cases := []struct {
		dims []int
		want [3]int
	}{
		// Longest first: Poisson2-like shape blocks mode-2 (j) first.
		{[]int{2000, 16000, 2000}, [3]int{1, 2, 0}},
		// All equal: access-volume order mode-2, mode-3, mode-1.
		{[]int{100, 100, 100}, [3]int{1, 2, 0}},
		// Netflix-like: huge mode-1 first, then mode-2, then tiny mode-3.
		{[]int{480000, 18000, 80}, [3]int{0, 1, 2}},
		// Mode-3 longest (NELL2-like).
		{[]int{12000, 9000, 29000}, [3]int{2, 0, 1}},
	}
	for _, tc := range cases {
		if got := mbModeOrder(tc.dims); got != tc.want {
			t.Fatalf("dims %v: order = %v, want %v", tc.dims, got, tc.want)
		}
	}
}

// convexCost builds a synthetic cost with a single optimum, so the
// search procedures can be verified deterministically.
func convexRankCost(optBS int, rank int) CostFunc {
	return func(p Plan) float64 {
		bs := p.RankBlockCols
		if bs == 0 {
			bs = rank
		}
		d := float64(bs - optBS)
		return 100 + d*d
	}
}

func TestSearchRankBFindsSweetSpot(t *testing.T) {
	// Optimum at 48 columns: search must walk the registry ladder
	// (8, 16, 24, 32, 40, 48, 56) and stop at the first worsening rung.
	var trials []Trial
	best := searchRankB(Plan{Method: MethodRankB}, 512, convexRankCost(48, 512), 0.001, &trials)
	if best.RankBlockCols != 48 {
		t.Fatalf("best bs = %d, want 48 (trials: %v)", best.RankBlockCols, trials)
	}
	// Stopping rule: must not have probed far past the optimum — the
	// baseline plus the seven rungs up to the first worsening one.
	if len(trials) > 8 {
		t.Fatalf("search did not stop after worsening: %d trials", len(trials))
	}
}

func TestSearchRankBReachesFullRank(t *testing.T) {
	// Strictly decreasing cost up to bs == rank: the ladder must reach
	// the rank itself (the rung the old `bs < rank` loop skipped).
	rank := 64
	cost := func(p Plan) float64 {
		if p.RankBlockCols == 0 {
			return 100
		}
		return 100 - float64(p.RankBlockCols)
	}
	var trials []Trial
	best := searchRankB(Plan{Method: MethodRankB}, rank, cost, 0.001, &trials)
	if best.RankBlockCols != rank {
		t.Fatalf("best bs = %d, want %d (full-rank rung not evaluated)", best.RankBlockCols, rank)
	}
}

func TestSearchRankBKeepsBaselineWhenBlockingHurts(t *testing.T) {
	// Monotonically worse with more blocks (Poisson3's regime in
	// Figure 4): the unblocked plan must win.
	cost := func(p Plan) float64 {
		if p.RankBlockCols == 0 {
			return 1.0
		}
		return 2.0 + 1/float64(p.RankBlockCols)
	}
	var trials []Trial
	best := searchRankB(Plan{Method: MethodRankB}, 256, cost, 0.01, &trials)
	if best.RankBlockCols != 0 {
		t.Fatalf("best bs = %d, want 0 (no blocking)", best.RankBlockCols)
	}
}

func TestSearchMBFollowsModeOrder(t *testing.T) {
	// Cost optimal at grid {1, 8, 2} for a mode-2-dominant shape.
	dims := []int{100, 1000, 100}
	opt := [3]int{1, 8, 2}
	cost := func(p Plan) float64 {
		var d float64
		for m := 0; m < 3; m++ {
			diff := math.Log2(float64(p.Grid[m])) - math.Log2(float64(opt[m]))
			d += diff * diff
		}
		return 10 + d
	}
	var trials []Trial
	best := searchMB(Plan{Method: MethodMB}, dims, cost, 0.0001, &trials)
	if best.Grid != opt {
		t.Fatalf("grid = %v, want %v", best.Grid, opt)
	}
}

func TestSearchMBStaysUnblockedWhenBlockingHurts(t *testing.T) {
	dims := []int{64, 64, 64}
	cost := func(p Plan) float64 {
		return float64(p.Grid[0] * p.Grid[1] * p.Grid[2]) // any blocking hurts
	}
	var trials []Trial
	best := searchMB(Plan{Method: MethodMB}, dims, cost, 0.01, &trials)
	if best.Grid != [3]int{1, 1, 1} {
		t.Fatalf("grid = %v, want 1x1x1", best.Grid)
	}
}

func TestSearchMBRespectsModeLengths(t *testing.T) {
	// A mode of length 3 can never get more than 3 blocks (doubling
	// stops at the mode length).
	dims := []int{3, 3, 3}
	cost := func(p Plan) float64 {
		return 1 / float64(p.Grid[0]*p.Grid[1]*p.Grid[2]) // more blocks always better
	}
	var trials []Trial
	best := searchMB(Plan{Method: MethodMB}, dims, cost, 0.0001, &trials)
	for m := 0; m < 3; m++ {
		if best.Grid[m] > 3 {
			t.Fatalf("grid[%d] = %d exceeds mode length", m, best.Grid[m])
		}
	}
	if best.Grid != [3]int{2, 2, 2} {
		t.Fatalf("grid = %v, want 2x2x2 (doubling stops at mode length)", best.Grid)
	}
}

func TestAutotuneWithCostCombined(t *testing.T) {
	// MB+RankB: grid tuned first, then rank strips on the frozen grid.
	dims := []int{64, 512, 64}
	optGrid := [3]int{1, 4, 1}
	optBS := 32
	cost := func(p Plan) float64 {
		var d float64
		for m := 0; m < 3; m++ {
			diff := math.Log2(float64(p.Grid[m])) - math.Log2(float64(optGrid[m]))
			d += diff * diff
		}
		bs := p.RankBlockCols
		if bs == 0 {
			bs = 256
		}
		d += math.Abs(float64(bs-optBS)) / 16
		return 10 + d
	}
	plan, trials, err := AutotuneWithCost(dims, 256, MethodMBRankB, Plan{Method: MethodMBRankB}, cost, AutotuneOptions{Tolerance: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Grid != optGrid {
		t.Fatalf("grid = %v, want %v", plan.Grid, optGrid)
	}
	if plan.RankBlockCols != optBS {
		t.Fatalf("bs = %d, want %d", plan.RankBlockCols, optBS)
	}
	if plan.Method != MethodMBRankB {
		t.Fatalf("method = %v", plan.Method)
	}
	if len(trials) == 0 {
		t.Fatal("no trial log")
	}
}

func TestAutotuneTrivialMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randCOO(rng, []int{8, 8, 8}, 50)
	for _, m := range []Method{MethodCOO, MethodSPLATT} {
		plan, trials, err := Autotune(x, 16, m, AutotuneOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) != 0 {
			t.Fatalf("%v: unexpected trials", m)
		}
		if plan.Method != m {
			t.Fatalf("%v: plan method %v", m, plan.Method)
		}
	}
}

func TestAutotuneErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randCOO(rng, []int{8, 8, 8}, 50)
	if _, _, err := Autotune(x, 0, MethodMB, AutotuneOptions{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	bad := nmode.NewTensor([]int{2, 2, 2}, 0)
	bad.Append([]nmode.Index{5, 0, 0}, 1)
	if _, _, err := Autotune(bad, 16, MethodMB, AutotuneOptions{}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}
