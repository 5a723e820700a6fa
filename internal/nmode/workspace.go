package nmode

import (
	"spblock/internal/analysis/check"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/sched"
)

// nworkspace owns every buffer the N-mode kernels touch beyond the
// caller's operands: a CP-ALS decomposition calls MTTKRP 10-1000s of
// times, and per-call makes (packed factor strips, per-worker DFS
// accumulators, private COO outputs, goroutine closures) would turn
// into allocator pressure and GC noise on every sweep and every
// autotuner measurement.
//
// Worker-count-dependent state (the sched.Pool's runners and queue
// layouts) is built once in NewExecutor; rank-dependent buffers
// (walkers, packed strips) are sized lazily on the first Run and
// rebuilt only when the rank changes. Ownership rule: everything here
// belongs to exactly one Executor, which must not Run concurrently
// with itself.
//
//spblock:workspace
type nworkspace struct {
	// rank the rank-dependent buffers are sized for (0 = never sized).
	rank int

	// pool runs the executor's work units — root-slice ranges on the
	// unblocked path, root-mode block layers on the blocked path,
	// nonzero ranges for AlgCOO — on its prebuilt workers under the
	// requested scheduling policy (see internal/sched). Built once in
	// initPool.
	pool sched.Pool

	// Operand state of the in-flight Run (or strip), published before
	// the pool runs and read by the unit bodies.
	factors []*la.Matrix
	out     *la.Matrix

	// walkers holds one DFS accumulator set per worker (index 0 serves
	// the sequential path).
	walkers []*walker
	// privates holds one output copy per parallel AlgCOO worker: COO
	// nonzero ranges do not own disjoint output rows.
	privates []*la.Matrix

	// Packed rank-strip buffers (Sec. V-B "stacked strips"), one per
	// non-root mode, plus reusable view headers and the factor-pointer
	// slice handed to the walkers during strips.
	packed []*la.Matrix
	views  []la.Matrix
	pf     []*la.Matrix
	oPack  *la.Matrix
	oView  la.Matrix

	// kern is the register-block kernel variant for the effective strip
	// width, resolved once per rank change and copied into every pooled
	// walker.
	kern kernel.Strip
}

// ensure sizes the rank-dependent buffers for rank r. No-op when the
// rank is unchanged, which is the steady state of a decomposition.
//
//spblock:coldpath
func (e *Executor) ensure(r int) {
	ws := &e.ws
	if ws.rank == r {
		return
	}
	ws.rank = r
	// The effective strip width drives the kernel variant: packed
	// strips are RankBlockCols wide, otherwise the whole rank is one
	// strip (narrower final strips fall to the variant's scalar tail).
	if e.opts.Algorithm == AlgRegister {
		eff := r
		if bs := e.opts.RankBlockCols; bs > 0 && bs < r {
			eff = bs
		}
		ws.kern = kernel.Resolve(eff)
		e.met.SetKernel(ws.kern.Name)
	}
	nw := max(ws.pool.Workers(), 1)
	ws.walkers = ws.walkers[:0]
	for w := 0; w < nw; w++ {
		wk := newWalkerBufs(e.order, r, ws.kern)
		if e.opts.Algorithm == AlgAccumulator {
			wk.acc = make([]float64, r)
		}
		ws.walkers = append(ws.walkers, wk)
	}
	ws.privates = ws.privates[:0]
	if e.coo != nil {
		for w := 0; w < ws.pool.Workers(); w++ {
			ws.privates = append(ws.privates, la.NewMatrix(e.dims[e.mode], r))
		}
	}
	if bs := e.opts.RankBlockCols; bs > 0 && bs < r {
		if check.Enabled {
			check.Must("nmode.ensure", check.StripLadder(r, bs))
		}
		if ws.packed == nil {
			ws.packed = make([]*la.Matrix, e.order)
			ws.views = make([]la.Matrix, e.order)
			ws.pf = make([]*la.Matrix, e.order)
		}
		for m := 0; m < e.order; m++ {
			if m == e.mode {
				ws.packed[m] = nil
				continue
			}
			ws.packed[m] = la.NewMatrix(e.dims[m], bs)
		}
		ws.oPack = la.NewMatrix(e.dims[e.mode], bs)
	}
	e.met.SetPerRun(e.perRunMetrics(r))
}

// perRunMetrics derives the per-Run counter deltas from the
// preprocessed structure at rank r, on the amortised resize path, so
// EndRun's hot path is constant-count integer adds: "fibers" are the
// parents of the leaf level, the N-mode generalisation of the order-3
// fiber epilogue (none for AlgCOO).
//
//spblock:coldpath
func (e *Executor) perRunMetrics(r int) metrics.PerRun {
	nnz := int64(e.NNZ())
	var fibers, blocks int64
	switch {
	case e.blocked != nil:
		for _, layer := range e.layers {
			for _, blk := range layer {
				fibers += int64(blk.NumNodes(blk.Order() - 2))
				blocks++
			}
		}
	case e.csf != nil:
		fibers = int64(e.csf.NumNodes(e.order - 2))
	}
	strips := 0
	if bs := e.opts.RankBlockCols; bs > 0 && bs < r {
		strips = (r + bs - 1) / bs
	}
	walks := int64(max(strips, 1))
	return metrics.PerRun{
		NNZ:      nnz * walks,
		Fibers:   fibers * walks,
		Blocks:   blocks * walks,
		Strips:   int64(strips),
		BytesEst: metrics.EqBytes(nnz, fibers, r, int(walks)),
	}
}

// initPool defines the executor's work units — leaf-weighted root
// ranges of the tree, nnz-weighted root-mode block layers, or ordered
// nonzero ranges — and hands them to the pool with the unit body that
// runs a range of them. Distinct roots and distinct layers own
// distinct output rows, so any partition of them is race-free and
// bit-identical; COO ranges write private outputs instead.
//
//spblock:coldpath
func (e *Executor) initPool() {
	p := &e.ws.pool
	switch {
	case e.blocked != nil:
		p.Build(&e.met, e.opts.Workers, sched.SplitLayers, len(e.layers), layerCum(e.layers), e.layerUnit)
	case e.coo != nil:
		p.Build(&e.met, e.opts.Workers, sched.SplitOrdered, e.coo.NNZ(), nil, e.cooUnit)
	default:
		end := rootLeafEnds(e.csf)
		cum := func(i int) int64 { return end[i] }
		p.Build(&e.met, e.opts.Workers, sched.SplitShares, e.csf.NumNodes(0), cum, e.rootUnit)
	}
}

// cooUnit runs the coordinate kernel over nonzeros [lo, hi) as worker
// w: into out on a sequential pool, else into w's private output. The
// ordered split hands each worker exactly one range per run, so the
// private output is zeroed here once per run.
//
//spblock:hotpath
func (e *Executor) cooUnit(w, lo, hi int) {
	ws := &e.ws
	out := ws.out
	if len(ws.privates) > 0 {
		out = ws.privates[w]
		out.Zero()
	}
	wk := ws.walkers[w]
	wk.factors, wk.out, wk.width = ws.factors, out, out.Cols
	wk.coo(e.coo, e.mode, lo, hi)
}

// rootUnit walks the tree's roots [lo, hi) as worker w.
//
//spblock:hotpath
func (e *Executor) rootUnit(w, lo, hi int) {
	wk := e.ws.walkers[w]
	wk.bind(e.csf, e.ws.factors, e.ws.out)
	wk.roots(lo, hi)
}

// layerUnit walks every block of the root-mode layers [lo, hi) as
// worker w, blocks in layer order.
//
//spblock:hotpath
func (e *Executor) layerUnit(w, lo, hi int) {
	wk := e.ws.walkers[w]
	for li := lo; li < hi; li++ {
		for _, blk := range e.layers[li] {
			wk.bind(blk, e.ws.factors, e.ws.out)
			wk.roots(0, blk.NumNodes(0))
		}
	}
}

// rootLeafEnds returns end[x] = leaves under roots [0, x], by composing
// the child pointers level by level (subtrees are contiguous at every
// level) — the leaf-count weight function for the root partition.
//
//spblock:coldpath
func rootLeafEnds(c *CSF) []int64 {
	roots := c.NumNodes(0)
	n := c.Order()
	end := make([]int64, roots)
	for x := 0; x < roots; x++ {
		p := int32(x + 1)
		for d := 0; d < n-1; d++ {
			p = c.Ptr[d][p]
		}
		end[x] = int64(p)
	}
	return end
}

// layerCum returns the cumulative-nonzero weight function over the
// blocked tensor's root-mode layers, for nnz-balanced steal chunks.
//
//spblock:coldpath
func layerCum(layers [][]*CSF) func(int) int64 {
	prefix := make([]int64, len(layers))
	var total int64
	for li, layer := range layers {
		for _, blk := range layer {
			total += int64(blk.NNZ())
		}
		prefix[li] = total
	}
	return func(i int) int64 { return prefix[i] }
}
