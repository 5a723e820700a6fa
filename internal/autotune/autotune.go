// Package autotune realises the paper's future-work proposal
// (Sec. VII): "finding the optimal sizes would require a more accurate
// model for data movement, as well as an efficient heuristic to search
// through the parameter space. That is, a well designed autotuning
// framework would allow the work presented here to be practical."
//
// It offers three search strategies over the (MB grid, RankB strip)
// space, all returning a core.Plan:
//
//   - StrategyHeuristic — the paper's own Sec. V-C greedy walk, timed
//     on real executions (delegates to core.Autotune);
//   - StrategyModel — the same greedy walk, but driven by a *data
//     movement model*: each candidate's DRAM traffic is predicted by
//     replaying its access trace through the cache simulator on a
//     sampled sub-tensor, converted to time with the roofline bound.
//     No candidate kernel ever executes, so tuning cost is independent
//     of the rank and of machine noise;
//   - StrategyExhaustive — a bounded sweep of the whole space, the
//     quality ceiling the cheap strategies are judged against.
package autotune

import (
	"fmt"
	"math/rand"
	"runtime"

	"spblock/internal/cachesim"
	"spblock/internal/core"
	"spblock/internal/kernel"
	"spblock/internal/nmode"
	"spblock/internal/roofline"
	"spblock/internal/tensor"
)

// Strategy selects a search algorithm.
type Strategy int

const (
	// StrategyHeuristic is the paper's Sec. V-C measured greedy search.
	StrategyHeuristic Strategy = iota
	// StrategyModel is the greedy search driven by simulated traffic.
	StrategyModel
	// StrategyExhaustive sweeps a bounded grid of candidates.
	StrategyExhaustive
)

func (s Strategy) String() string {
	switch s {
	case StrategyHeuristic:
		return "heuristic"
	case StrategyModel:
		return "model"
	case StrategyExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a tuning run.
type Options struct {
	// Machine supplies the roofline parameters for the model strategy
	// (zero value = the paper's POWER8 socket).
	Machine roofline.Machine
	// Cache is the simulated hierarchy for the model strategy
	// (zero value = POWER8-like 64 KB L1 + 512 KB L2).
	Cache cachesim.Config
	// SampleNNZ bounds the sub-tensor used for trace simulation
	// (default 100k nonzeros). Sampling keeps model evaluation fast on
	// multi-million-nonzero tensors; block-size *ratios* survive
	// sampling because the factor-row working sets shrink with the
	// tensor.
	SampleNNZ int
	// MaxGridSteps bounds the exhaustive sweep: per mode the candidate
	// block counts are 1, 2, 4, ..., 2^MaxGridSteps (default 4).
	MaxGridSteps int
	// Seed drives sampling and the heuristic's factor matrices.
	Seed int64
	// Workers is the parallelism for the heuristic's measurements.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Machine == (roofline.Machine{}) {
		o.Machine = roofline.POWER8Socket
	}
	if o.Cache.LineSize == 0 {
		o.Cache = cachesim.POWER8()
	}
	if o.SampleNNZ <= 0 {
		o.SampleNNZ = 100_000
	}
	if o.MaxGridSteps <= 0 {
		o.MaxGridSteps = 4
	}
	// Pin the worker count the returned plans carry. The heuristic's
	// measurements always ran at GOMAXPROCS when Workers was 0, but the
	// plan recorded the raw 0 — so a caller re-running the plan on a
	// capped executor could silently get a different parallelism than the
	// one that was tuned.
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result reports a tuning run.
type Result struct {
	Plan      Plan
	Trials    []core.Trial
	Strategy  Strategy
	Evaluated int
}

// Plan aliases core.Plan for callers that only import this package.
type Plan = core.Plan

// Tune searches for block sizes for the given method on tensor t at
// rank R.
func Tune(t *nmode.Tensor, rank int, method core.Method, strategy Strategy, opts Options) (Result, error) {
	if err := tensor.CheckOrder3(t); err != nil {
		return Result{}, err
	}
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	if rank <= 0 {
		return Result{}, fmt.Errorf("autotune: rank must be positive, got %d", rank)
	}
	opts = opts.withDefaults()
	switch strategy {
	case StrategyHeuristic:
		plan, trials, err := core.Autotune(t, rank, method, core.AutotuneOptions{
			Workers: opts.Workers, Seed: opts.Seed,
		})
		return Result{Plan: plan, Trials: trials, Strategy: strategy, Evaluated: len(trials)}, err
	case StrategyModel:
		return tuneWithModel(t, rank, method, opts)
	case StrategyExhaustive:
		return tuneExhaustive(t, rank, method, opts)
	default:
		return Result{}, fmt.Errorf("autotune: unknown strategy %v", strategy)
	}
}

// sample returns t, or a uniformly sampled sub-tensor of about
// opts.SampleNNZ nonzeros when t is larger.
func sample(t *nmode.Tensor, target int, seed int64) *nmode.Tensor {
	if t.NNZ() <= target {
		return t
	}
	rng := rand.New(rand.NewSource(seed))
	out := nmode.NewTensor(t.Dims, target)
	coord := make([]nmode.Index, t.Order())
	// Bernoulli sampling with the right expected count keeps the
	// spatial distribution intact. The draw is capped at target so an
	// above-expectation run cannot outgrow the pre-sized capacity.
	p := float64(target) / float64(t.NNZ())
	for i := 0; i < t.NNZ() && out.NNZ() < target; i++ {
		if rng.Float64() < p {
			out.Append(t.Coord(i, coord), t.Val[i])
		}
	}
	// Degenerate draw: keep one real nonzero so downstream builders see a
	// non-empty tensor with the original Dims.
	if out.NNZ() == 0 {
		out.Append(t.Coord(0, coord), t.Val[0])
	}
	return out
}

// ModelCost builds a CostFunc that prices a plan by simulated DRAM
// traffic converted to seconds with the roofline bound. Exposed so
// experiments can tune against traffic explicitly. t must be
// third-order.
func ModelCost(t *nmode.Tensor, rank int, opts Options) (core.CostFunc, error) {
	if err := tensor.CheckOrder3(t); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sub := sample(t, opts.SampleNNZ, opts.Seed)
	csf, err := nmode.Build(sub, tensor.SPLATTModeOrder())
	if err != nil {
		return nil, err
	}
	stats, err := tensor.ComputeStats(sub)
	if err != nil {
		return nil, err
	}
	flops := 2 * float64(rank) * float64(stats.NNZ+stats.Fibers)
	cpuSec := flops / (opts.Machine.PeakGFLOP * 1e9)

	// Blocked structures are rebuilt per candidate grid; cache them.
	blockedCache := map[[3]int]*nmode.BlockedTensor{}
	infinity := 1e300

	return func(p core.Plan) float64 {
		var trace func(h *cachesim.Hierarchy) error
		simOpt := cachesim.Options{Rank: rank, RankBlockCols: p.RankBlockCols}
		switch p.Method {
		case core.MethodSPLATT:
			trace = func(h *cachesim.Hierarchy) error {
				return cachesim.TraceSPLATT(h, simOpt, csf)
			}
		case core.MethodRankB:
			trace = func(h *cachesim.Hierarchy) error {
				return cachesim.TraceRankB(h, simOpt, csf)
			}
		case core.MethodMB, core.MethodMBRankB:
			grid := p.Grid
			bt, ok := blockedCache[grid]
			if !ok {
				var err error
				bt, err = nmode.BuildBlocked(sub, grid[:], tensor.SPLATTModeOrder())
				if err != nil {
					return infinity
				}
				blockedCache[grid] = bt
			}
			traceBlocks := cachesim.TraceRankB
			if p.Method == core.MethodMB {
				traceBlocks = cachesim.TraceSPLATT
			}
			trace = func(h *cachesim.Hierarchy) error {
				return traceBlocks(h, simOpt, bt.Blocks...)
			}
		default:
			return infinity
		}
		tr, err := cachesim.MeasureTraffic(opts.Cache, trace)
		if err != nil {
			return infinity
		}
		memSec := float64(tr.MemBytes(-1)) / (opts.Machine.MemGBs * 1e9)
		if memSec > cpuSec {
			return memSec
		}
		return cpuSec
	}, nil
}

// tuneWithModel runs a "patient" greedy search against the traffic
// model: along each mode (in the paper's traversal order) it evaluates
// every power-of-two block count up to 2^MaxGridSteps and keeps the
// best, rather than stopping at the first non-improving doubling. The
// paper's stopping rule exists to bound *measurement* cost; model
// evaluations are cheap enough to explore the plateau, which matters
// because the benefit of blocking often only appears once the per-block
// working set first fits the cache (e.g. a 2.3 MB factor needs 8
// blocks before anything changes at a 512 KB L2 — doubling once shows
// no gain and the impatient rule gives up).
func tuneWithModel(t *nmode.Tensor, rank int, method core.Method, opts Options) (Result, error) {
	cost, err := ModelCost(t, rank, opts)
	if err != nil {
		return Result{}, err
	}
	var trials []core.Trial
	eval := func(p core.Plan) float64 {
		c := cost(p)
		trials = append(trials, core.Trial{Plan: p, Cost: c})
		return c
	}
	seed := core.Plan{Method: method, Grid: [3]int{1, 1, 1}, Workers: opts.Workers}
	best := greedyModelSearch(t.Dims, rank, seed, opts.MaxGridSteps, eval)
	return Result{Plan: best, Trials: trials, Strategy: StrategyModel, Evaluated: len(trials)}, nil
}

// greedyModelSearch is the model strategy's patient greedy walk:
// starting from seed (whose Method and Workers pass through
// unchanged), along each mode (in the paper's traversal order) it
// evaluates every power-of-two block count up to
// 2^maxGridSteps and keeps the best, then walks the kernel registry's
// strip ladder capped at and including the rank, exactly like the
// exhaustive sweep. The ladder is every width the registered
// register-block variants execute without a super-MinWidth scalar tail
// (multiples of kernel.MinWidth), plus the rank itself — so a
// rank <= MinWidth search still evaluates the whole-rank strip and the
// strategies agree on small ranks.
func greedyModelSearch(dims []int, rank int, seed core.Plan, maxGridSteps int, eval func(core.Plan) float64) core.Plan {
	best := seed
	bestCost := eval(best)
	method := seed.Method
	if method == core.MethodMB || method == core.MethodMBRankB {
		for _, m := range core.MBModeOrder(dims) {
			for blocks := 2; blocks <= dims[m] && blocks <= 1<<maxGridSteps; blocks *= 2 {
				cand := best
				cand.Grid[m] = blocks
				if c := eval(cand); c < bestCost {
					best, bestCost = cand, c
				}
			}
		}
	}
	if method == core.MethodRankB || method == core.MethodMBRankB {
		for _, bs := range kernel.StripCandidates(rank) {
			cand := best
			cand.RankBlockCols = bs
			if c := eval(cand); c < bestCost {
				best, bestCost = cand, c
			}
		}
	}
	return best
}

func tuneExhaustive(t *nmode.Tensor, rank int, method core.Method, opts Options) (Result, error) {
	cost, err := ModelCost(t, rank, opts)
	if err != nil {
		return Result{}, err
	}
	grids := [][3]int{{1, 1, 1}}
	if method == core.MethodMB || method == core.MethodMBRankB {
		grids = enumerateGrids(t.Dims, opts.MaxGridSteps)
	}
	strips := []int{0}
	if method == core.MethodRankB || method == core.MethodMBRankB {
		strips = append(strips, kernel.StripCandidates(rank)...)
	}
	best := core.Plan{Method: method, Grid: [3]int{1, 1, 1}, Workers: opts.Workers}
	bestCost := 1e300
	var trials []core.Trial
	for _, g := range grids {
		for _, bs := range strips {
			cand := core.Plan{Method: method, Grid: g, RankBlockCols: bs, Workers: opts.Workers}
			c := cost(cand)
			trials = append(trials, core.Trial{Plan: cand, Cost: c})
			if c < bestCost {
				best, bestCost = cand, c
			}
		}
	}
	return Result{Plan: best, Trials: trials, Strategy: StrategyExhaustive, Evaluated: len(trials)}, nil
}

// enumerateGrids lists power-of-two grids up to 2^steps per mode,
// bounded by the mode lengths.
func enumerateGrids(dims []int, steps int) [][3]int {
	var axis [3][]int
	for m := 0; m < 3; m++ {
		for v := 1; v <= dims[m] && v <= 1<<steps; v *= 2 {
			axis[m] = append(axis[m], v)
		}
	}
	var out [][3]int
	for _, a := range axis[0] {
		for _, b := range axis[1] {
			for _, c := range axis[2] {
				out = append(out, [3]int{a, b, c})
			}
		}
	}
	return out
}
