// Package sched owns the work-distribution contract for the blocked
// MTTKRP executors, the way internal/kernel owns the accumulate
// contract: how a run's work units — CSF root ranges, multi-block
// layers, COO nonzero ranges — are carved into chunks and handed to
// the prebuilt worker goroutines.
//
// Three pieces compose:
//
//   - Shares / StealChunks / UniformChunks: the weighted and uniform
//     partition routines.
//   - Queue: the per-executor distribution state, one precomputed
//     layout with forward-only atomic cursors, built on the cold path;
//     the hot Next path is zero-allocation.
//   - Pool: the one worker pool every executor runs on. It owns the
//     prebuilt worker goroutine bodies, the Queue and the per-worker
//     metrics buckets; an executor only supplies its work units and a
//     body per unit range.
//
// The layout is a fixed property of the work's Split, not a policy a
// caller picks: root ranges always steal, multi-block layers always
// drain one shared queue, ordered ranges always stay one per worker.
//
// The package sits below core/nmode/engine and imports nothing from
// them, so every executor layer can share it without cycles.
package sched

import (
	"runtime"
	"sync"
	"time"

	"spblock/internal/metrics"
)

// Split names how a Pool carves an executor's work units across its
// workers. Each split has exactly one layout.
type Split uint8

const (
	// SplitShares carves weight-balanced chunks (CSF root ranges),
	// ChunksPerWorker per worker, into one contiguous segment per
	// worker; a worker that drains its own segment steals from the
	// others'. Distinct roots own distinct output rows, so which worker
	// runs a chunk moves no bit of the result.
	SplitShares Split = iota
	// SplitLayers lets every worker drain one shared queue of single
	// units (multi-block layers), one layer per claim.
	SplitLayers
	// SplitOrdered gives each worker one uniform ceil(n/workers) range
	// and never steals: the COO executor reduces its privatised outputs
	// in worker order, so the unit→worker assignment is part of its
	// floating-point result.
	SplitOrdered
)

// Unit runs the work units [lo, hi) as worker w. A parallel pool calls
// it from its worker goroutines with w < Workers(); a sequential pool
// calls it once per run as Unit(0, 0, n) on the caller's goroutine.
type Unit func(w, lo, hi int)

// Pool is the one worker pool behind the in-memory executors
// (internal/nmode) and the dense products (internal/la). The executor
// builds its structure, defines its work units (how many, their
// cumulative weight, and the Unit body that runs a range of them) and
// publishes its operands before each Run; the Pool owns the rest: the
// prebuilt per-worker runners and their allocation-free launch/join,
// the Queue layout, and per-worker busy time and steal accounting in
// the executor's metrics collector.
//
// Build and Resize run on the cold path; Run is the hot half and
// allocates nothing. A Pool belongs to one executor and must not Run
// concurrently with itself.
//
//spblock:workspace
type Pool struct {
	met *metrics.Collector

	// What Build was given, kept so Resize can rebuild at a new worker
	// count without the executor restating it.
	split Split
	n     int
	cum   func(int) int64
	unit  Unit

	// runners are the prebuilt worker bodies, one per worker; empty
	// when the work resolves to a sequential run. A `go` statement on a
	// fresh closure allocates, so prebuilding them keeps the launch
	// allocation-free.
	runners []func()
	wg      sync.WaitGroup
	q       Queue
}

// Build installs the executor's work description and builds the pool
// for the given worker count (0 = GOMAXPROCS). n is the number of work
// units; cum(i) is the total weight of units [0, i] (used only by
// SplitShares); unit runs a range of units. met receives the per-
// worker time and steal buckets.
//
//spblock:coldpath
func (p *Pool) Build(met *metrics.Collector, workers int, split Split, n int, cum func(int) int64, unit Unit) {
	p.met = met
	p.split, p.n, p.cum, p.unit = split, n, cum, unit
	p.Resize(workers)
}

// Resize rebuilds the runners, queue layout and metrics buckets for a
// new worker count (0 = GOMAXPROCS), keeping the work description.
// Must not be called concurrently with Run.
//
//spblock:coldpath
func (p *Pool) Resize(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.runners = nil
	p.q = Queue{}
	nw := p.layout(workers)
	for w := 0; w < nw; w++ {
		w := w
		p.runners = append(p.runners, func() {
			defer p.wg.Done()
			p.work(w)
		})
	}
	p.met.SizeWorkers(nw)
}

// layout builds the split's queue layout and returns the number of
// workers it supports; 0 means run sequentially.
//
//spblock:coldpath
func (p *Pool) layout(workers int) int {
	switch p.split {
	case SplitOrdered:
		chunks := UniformChunks(p.n, workers)
		if chunks == nil {
			return 0
		}
		p.q.InitOrdered(chunks)
		return len(chunks)
	case SplitLayers:
		workers = min(workers, p.n)
		if workers <= 1 {
			return 0
		}
		p.q.InitShared(UnitRanges(p.n))
		return workers
	default:
		chunks := StealChunks(p.n, workers, p.cum)
		workers = min(workers, len(chunks))
		if workers <= 1 {
			return 0
		}
		p.q.InitStealing(chunks, workers)
		return workers
	}
}

// Workers reports how many worker goroutines a Run launches; 0 means
// Run calls the unit body once, inline.
//
//spblock:hotpath
func (p *Pool) Workers() int { return len(p.runners) }

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
