package sched

import (
	"runtime"
	"sync"
	"time"

	"spblock/internal/metrics"
)

// Split names how a Pool carves an executor's work units into the
// static layout, and whether a stealing layout may be built on top.
type Split uint8

const (
	// SplitShares gives each worker one contiguous, weight-balanced
	// share (CSF slice ranges, fiber-tree root ranges). Non-static
	// policies also build the finer stealing chunk list.
	SplitShares Split = iota
	// SplitLayers lets every worker drain one shared queue of single
	// units (multi-block layers). Non-static policies also build
	// weight-balanced groups of adjacent layers for stealing.
	SplitLayers
	// SplitOrdered gives each worker one uniform ceil(n/workers) range
	// and stays static under every policy: the COO executor reduces its
	// privatised outputs in worker order, so the unit→worker assignment
	// is part of its floating-point result.
	SplitOrdered
)

// Unit runs the work units [lo, hi) as worker w. A parallel pool calls
// it from its worker goroutines with w < Workers(); a sequential pool
// calls it once per run as Unit(0, 0, n) on the caller's goroutine.
type Unit func(w, lo, hi int)

// Pool is the one worker pool behind the in-memory executors
// (internal/nmode). The executor builds its
// structure, defines its work units (how many, their cumulative
// weight, and the Unit body that runs a range of them) and publishes
// its operands before each Run; the Pool owns the rest: the prebuilt per-worker runners and their allocation-free
// launch/join, the Queue layouts, applying the Policy, the resolved
// scheduler name in the executor's metrics collector, per-worker busy
// time and steal accounting, and the adaptive Controller with its
// window baseline.
//
// Build and Resize run on the cold path; Run and EndRun are the hot
// half and allocate nothing. A Pool belongs to one executor and must
// not Run concurrently with itself.
//
//spblock:workspace
type Pool struct {
	met *metrics.Collector

	// What Build was given, kept so Resize can rebuild at a new worker
	// count without the executor restating it.
	policy Policy
	split  Split
	n      int
	cum    func(int) int64
	unit   Unit

	// runners are the prebuilt worker bodies, one per worker; empty
	// when the work resolves to a sequential run. A `go` statement on a
	// fresh closure allocates, so prebuilding them keeps the launch
	// allocation-free.
	runners []func()
	wg      sync.WaitGroup
	q       Queue

	// ctrl is the adaptive promotion loop, nil unless the policy is
	// adaptive and a stealing layout exists. prevNS is its per-worker
	// busy-time window baseline, sized with the metrics buckets.
	ctrl   *Controller
	prevNS []int64
}

// Build installs the executor's work description and builds the pool
// for the given worker count (0 = GOMAXPROCS). n is the number of work
// units; cum(i) is the total weight of units [0, i] (unused by
// SplitOrdered); unit runs a range of units. met receives the per-
// worker time and steal buckets and the resolved scheduler name.
//
//spblock:coldpath
func (p *Pool) Build(met *metrics.Collector, workers int, policy Policy, split Split, n int, cum func(int) int64, unit Unit) {
	p.met = met
	p.policy, p.split, p.n, p.cum, p.unit = policy, split, n, cum, unit
	p.Resize(workers)
}

// Resize rebuilds the runners, queue layouts and metrics buckets for a
// new worker count (0 = GOMAXPROCS), keeping the work description. An
// adaptive pool keeps its controller, so a promotion already ratcheted
// survives, and its window baseline is re-sized with the buckets so
// the ratchet keeps observing. Must not be called concurrently with
// Run.
//
//spblock:coldpath
func (p *Pool) Resize(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.runners = nil
	p.q = Queue{}
	nw := p.layouts(workers)
	for w := 0; w < nw; w++ {
		w := w
		p.runners = append(p.runners, func() {
			defer p.wg.Done()
			p.work(w)
		})
	}
	p.met.SizeWorkers(nw)
	p.applyPolicy()
}

// layouts builds the queue layouts for the split and returns the
// number of workers they support; 0 means run sequentially.
//
//spblock:coldpath
func (p *Pool) layouts(workers int) int {
	switch p.split {
	case SplitOrdered:
		chunks := UniformChunks(p.n, workers)
		if chunks == nil {
			return 0
		}
		p.q.InitStatic(chunks)
		return len(chunks)
	case SplitLayers:
		workers = min(workers, p.n)
		if workers <= 1 {
			return 0
		}
		p.q.InitStaticShared(UnitRanges(p.n))
		if p.policy != PolicyStatic {
			p.q.InitStealing(StealChunks(p.n, workers, p.cum), workers)
		}
		return workers
	default:
		shares := Shares(p.n, workers, p.cum)
		if len(shares) <= 1 {
			return 0
		}
		p.q.InitStatic(shares)
		if p.policy != PolicyStatic {
			p.q.InitStealing(StealChunks(p.n, len(shares), p.cum), len(shares))
		}
		return len(shares)
	}
}

// applyPolicy activates the layout the policy asks for and records the
// resolved scheduler name. Policies that need a stealing layout fall
// back to static when none was built (SplitOrdered).
//
//spblock:coldpath
func (p *Pool) applyPolicy() {
	if len(p.runners) == 0 {
		// A sequential run schedules nothing.
		p.ctrl, p.prevNS = nil, nil
		p.met.SetSched("")
		return
	}
	switch {
	case p.policy == PolicySteal && p.q.CanSteal():
		p.q.SetStealing(true)
		p.met.SetSched(StealName)
	case p.policy == PolicyAdaptive && p.q.CanSteal():
		if p.ctrl == nil {
			p.ctrl = &Controller{}
		}
		// SizeWorkers zeroed the buckets, so a zero baseline is exact.
		p.prevNS = make([]int64, p.met.Workers())
		if p.ctrl.Promoted() {
			p.q.SetStealing(true)
			p.met.SetSched(AdaptiveStealName)
		} else {
			p.met.SetSched(AdaptiveStaticName)
		}
	default:
		p.ctrl, p.prevNS = nil, nil
		p.met.SetSched(StaticName)
	}
}

// Workers reports how many worker goroutines a Run launches; 0 means
// Run calls the unit body once, inline.
//
//spblock:hotpath
func (p *Pool) Workers() int { return len(p.runners) }

// Stealing reports whether the stealing layout is active.
func (p *Pool) Stealing() bool { return p.q.Stealing() }

// CanSteal reports whether a stealing layout was built.
func (p *Pool) CanSteal() bool { return p.q.CanSteal() }

// Run executes every work unit exactly once with the operands the
// executor published, and returns when all of them are done. The
// runners and goroutine descriptors are recycled, so a steady-state
// Run does not allocate.
//
//spblock:hotpath
func (p *Pool) Run() {
	if len(p.runners) == 0 {
		p.unit(0, 0, p.n)
		return
	}
	p.q.Reset()
	p.wg.Add(len(p.runners))
	for _, fn := range p.runners {
		go fn()
	}
	p.wg.Wait()
}

// work is worker w's claim loop: drain the queue through the unit body
// and charge the busy time and steals to w's buckets.
//
//spblock:hotpath
func (p *Pool) work(w int) {
	t0 := time.Now()
	for {
		lo, hi, stolen, ok := p.q.Next(w)
		if !ok {
			break
		}
		if stolen {
			p.met.AddWorkerSteal(w)
		}
		p.unit(w, lo, hi)
	}
	p.met.AddWorkerTime(w, time.Since(t0))
}

// EndRun closes one executor Run that started at start: it records
// the run in the metrics collector and feeds the adaptive controller
// the run's imbalance window, flipping the queue to the stealing
// layout when the ratchet fires. The workers are quiescent here, both
// layouts were prebuilt and the scheduler names are constants, so
// promotion stays allocation-free.
//
//spblock:hotpath
func (p *Pool) EndRun(start time.Time) {
	p.met.EndRun(start)
	if p.ctrl != nil && p.ctrl.Observe(p.met.WindowImbalance(p.prevNS)) {
		p.q.SetStealing(true)
		p.met.SetSched(AdaptiveStealName)
	}
}
