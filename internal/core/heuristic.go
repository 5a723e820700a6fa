package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/tensor"
)

// AutotuneOptions configures the Sec. V-C block-size heuristic.
type AutotuneOptions struct {
	// Workers is the parallelism used while measuring (0 = GOMAXPROCS).
	Workers int
	// Trials is the number of timed runs per candidate; the minimum is
	// kept (robust against scheduler noise). Default 3.
	Trials int
	// Tolerance is the relative improvement a candidate must deliver to
	// count as "still improving". Default 0.01 (1%).
	Tolerance float64
	// Seed drives the random factor matrices used for measurement.
	Seed int64
}

func (o AutotuneOptions) withDefaults() AutotuneOptions {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 0.01
	}
	return o
}

// Trial records one measured candidate during autotuning.
type Trial struct {
	Plan Plan
	Cost float64 // seconds per MTTKRP (or synthetic cost in tests)
}

// CostFunc measures the cost of executing one plan; lower is better.
// Production use wires a wall-clock measurement; tests inject analytic
// cost models to verify the search procedure deterministically.
type CostFunc func(Plan) float64

// searchRankB implements the rank-blocking half of the heuristic:
// "go through block sizes in 128-byte increments — equivalent to the
// cache line size — until the performance stops improving". The ladder
// comes from kernel.StripCandidates: every width the kernel registry
// can execute without a super-MinWidth scalar tail, up to and
// including the rank itself — the final rung the old `bs < rank` loop
// never evaluated (the same walk internal/autotune's model ladder
// uses; a parity test pins the two).
//
// base carries the method/grid/workers; the returned plan is base with
// the winning RankBlockCols. The trial log is appended to trials.
func searchRankB(base Plan, rank int, cost CostFunc, tol float64, trials *[]Trial) Plan {
	measure := func(p Plan) float64 {
		c := cost(p)
		*trials = append(*trials, Trial{Plan: p, Cost: c})
		return c
	}
	best := base
	best.RankBlockCols = 0 // whole rank: the unblocked baseline
	bestCost := measure(best)
	for _, bs := range kernel.StripCandidates(rank) {
		cand := base
		cand.RankBlockCols = bs
		c := measure(cand)
		if c < bestCost*(1-tol) {
			best, bestCost = cand, c
		} else if c > bestCost {
			// Performance stopped improving: the paper's stopping rule.
			break
		}
	}
	return best
}

// MBModeOrder exposes the heuristic's mode traversal order for other
// tuning strategies (internal/autotune).
func MBModeOrder(dims tensor.Dims) [3]int { return mbModeOrder(dims) }

// mbModeOrder returns the mode indices in the order the heuristic
// blocks them: descending mode length, ties broken by access volume —
// mode-2 (j) first, then mode-3 (k), then mode-1 (i) — because the PPA
// showed the mode-2 factor is the most expensive to access (Sec. V-C).
func mbModeOrder(dims tensor.Dims) [3]int {
	priority := map[int]int{1: 0, 2: 1, 0: 2}
	order := []int{0, 1, 2}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := order[a], order[b]
		if dims[ma] != dims[mb] {
			return dims[ma] > dims[mb]
		}
		return priority[ma] < priority[mb]
	})
	return [3]int{order[0], order[1], order[2]}
}

// searchMB implements the multi-dimensional half: traverse the modes in
// mbModeOrder, doubling the block count along the current mode while
// performance keeps improving, then freeze it and move on. Not blocking
// a mode at all (count 1) remains the default when doubling never wins.
func searchMB(base Plan, dims tensor.Dims, cost CostFunc, tol float64, trials *[]Trial) Plan {
	measure := func(p Plan) float64 {
		c := cost(p)
		*trials = append(*trials, Trial{Plan: p, Cost: c})
		return c
	}
	best := base
	best.Grid = [3]int{1, 1, 1}
	bestCost := measure(best)
	for _, m := range mbModeOrder(dims) {
		for blocks := 2; blocks <= dims[m]; blocks *= 2 {
			cand := best
			cand.Grid[m] = blocks
			c := measure(cand)
			if c < bestCost*(1-tol) {
				best, bestCost = cand, c
				continue
			}
			break
		}
	}
	return best
}

// Autotune runs the Sec. V-C heuristic for the given method on tensor t
// at the given rank, measuring real executions, and returns the tuned
// plan plus the trial log. Methods without a tunable knob (COO, SPLATT)
// return immediately.
//
// The heuristic costs O(log₂ Iₙ) trials per mode plus O(R/16) rank
// trials — "relatively inexpensive compared to the 10–1000s of
// iterations required for decomposition".
//
// Each candidate runs the mode-1 product on a fresh NewEngine, once for
// warm-up (sizing the executor's pooled workspace) before the timed
// trials, so the timed runs are allocation-free and the measurements
// carry no allocator or GC noise.
func Autotune(t *tensor.COO, rank int, method Method, opts AutotuneOptions) (Plan, []Trial, error) {
	if err := t.Validate(); err != nil {
		return Plan{}, nil, err
	}
	if rank <= 0 {
		return Plan{}, nil, fmt.Errorf("core: rank must be positive, got %d", rank)
	}
	opts = opts.withDefaults()
	base := Plan{Method: method, Grid: [3]int{1, 1, 1}, Workers: opts.Workers}
	if method == MethodCOO || method == MethodSPLATT {
		return base, nil, nil
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	factors := []*la.Matrix{nil, la.NewMatrix(t.Dims[1], rank), la.NewMatrix(t.Dims[2], rank)}
	for _, f := range factors[1:] {
		for i := range f.Data {
			f.Data[i] = rng.Float64()
		}
	}
	out := la.NewMatrix(t.Dims[0], rank)

	cost := func(p Plan) float64 {
		e, err := NewEngine(t, p, 0)
		if err != nil {
			return float64(^uint(0) >> 1) // unbuildable plans lose
		}
		if err := e.Run(0, factors, out); err != nil { // warm-up
			return float64(^uint(0) >> 1)
		}
		bestSec := 0.0
		for trial := 0; trial < opts.Trials; trial++ {
			start := time.Now()
			if err := e.Run(0, factors, out); err != nil {
				return float64(^uint(0) >> 1)
			}
			sec := time.Since(start).Seconds()
			if trial == 0 || sec < bestSec {
				bestSec = sec
			}
		}
		return bestSec
	}
	return AutotuneWithCost(t.Dims, rank, method, base, cost, opts)
}

// AutotuneWithCost is the cost-function-parameterised core of Autotune:
// it runs the same Sec. V-C greedy searches against an arbitrary cost
// model. The autotune package uses it to tune against simulated cache
// traffic instead of wall-clock time, and tests use it with analytic
// costs to verify the search deterministically.
func AutotuneWithCost(dims tensor.Dims, rank int, method Method, base Plan, cost CostFunc, opts AutotuneOptions) (Plan, []Trial, error) {
	opts = opts.withDefaults()
	var trials []Trial
	switch method {
	case MethodRankB:
		p := searchRankB(base, rank, cost, opts.Tolerance, &trials)
		return p, trials, nil
	case MethodMB:
		p := searchMB(base, dims, cost, opts.Tolerance, &trials)
		return p, trials, nil
	case MethodMBRankB:
		// Tune the spatial grid first (it dominates the working set),
		// then the rank strip width on top of the chosen grid.
		mbBase := base
		mbBase.Method = MethodMB
		p := searchMB(mbBase, dims, cost, opts.Tolerance, &trials)
		p.Method = MethodMBRankB
		p = searchRankB(p, rank, cost, opts.Tolerance, &trials)
		return p, trials, nil
	default:
		return base, nil, nil
	}
}
