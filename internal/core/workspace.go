package core

import (
	"spblock/internal/analysis/check"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/sched"
)

// workspace owns every buffer an Executor's kernels touch besides the
// caller's operands, so repeated Run calls perform no steady-state heap
// allocations. CP-ALS invokes MTTKRP 10-1000s of times per
// decomposition (Sec. I); allocating the packed rank strips, per-worker
// fiber accumulators and COO privatised outputs on every call both
// thrashes the allocator and adds GC noise to every measurement the
// autotuner takes.
//
// The worker-count-dependent state (the sched.Pool's runners and queue
// layouts) is built once in NewExecutor; the rank-dependent buffers
// are sized lazily on the first Run and rebuilt only when the rank
// changes. Because the workspace is mutated by Run, one Executor must
// not Run concurrently with itself — use one Executor per goroutine
// (they can share the same tensor structures via separate NewExecutor
// calls, or separate modes of a MultiModeExecutor).
//
//spblock:workspace
type workspace struct {
	// rank the rank-dependent buffers are currently sized for (0 =
	// never sized).
	rank int

	// pool runs the executor's work units — nonzero ranges (COO), CSF
	// slice ranges (SPLATT / RankB), mode-1 block layers (MB /
	// MB+RankB) — on its prebuilt workers under the plan's scheduling
	// policy (see internal/sched). Built once in initPool.
	pool sched.Pool

	// Operand state of the in-flight Run (or strip of a Run), published
	// before the pool runs and read by the unit bodies.
	b, c, out *la.Matrix
	// bs is the rank-block width handed to the blocked kernels for the
	// current strip (0 selects the plain SPLATT per-block kernel).
	bs int

	// accums holds one fiber-accumulator array per worker (SPLATT and
	// the per-block kernel of MB), each sized to the current rank.
	accums [][]float64
	// privates holds one privatised output copy per COO worker.
	privates []*la.Matrix

	// Packed rank-strip buffers (Sec. V-B "stacked strips") and the
	// reusable view headers handed to kernels for both the packed and
	// the unpacked (ablation) strip drivers.
	bPack, cPack, oPack *la.Matrix
	bView, cView, oView la.Matrix

	// kern is the register-block kernel variant for the effective strip
	// width, resolved once per rank change (RankB / MB+RankB only). The
	// hot paths dispatch through these cached function pointers.
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
	nw := ws.pool.Workers()
	switch e.plan.Method {
	case MethodCOO:
		ws.privates = ws.privates[:0]
		for w := 0; w < nw; w++ {
			ws.privates = append(ws.privates, la.NewMatrix(e.dims[0], r))
		}
	case MethodSPLATT, MethodMB, MethodMBRankB:
		ws.accums = ws.accums[:0]
		for w := 0; w < max(nw, 1); w++ {
			ws.accums = append(ws.accums, make([]float64, r))
		}
	}
	if e.plan.Method == MethodRankB || e.plan.Method == MethodMBRankB {
		if check.Enabled {
			check.Must("core.ensure", check.StripLadder(r, e.rankBlock(r)))
		}
		bs := e.rankBlock(r)
		ws.kern = kernel.Resolve(bs)
		e.met.SetKernel(ws.kern.Name)
		if bs < r && !e.plan.NoStripPacking {
			ws.bPack = la.NewMatrix(e.dims[1], bs)
			ws.cPack = la.NewMatrix(e.dims[2], bs)
			ws.oPack = la.NewMatrix(e.dims[0], bs)
		}
	}
	e.met.SetPerRun(e.perRunMetrics(r))
}

// perRunMetrics derives the per-Run counter deltas from the
// preprocessed structure at rank r — a pure function of (structure,
// rank, strip width), recomputed only on the amortised resize path so
// EndRun's hot path is constant-count integer adds.
//
//spblock:coldpath
func (e *Executor) perRunMetrics(r int) metrics.PerRun {
	var nnz, fibers, blocks int64
	switch {
	case e.coo != nil:
		nnz = int64(e.coo.NNZ())
	case e.csf != nil:
		nnz = int64(e.csf.NNZ())
		fibers = int64(e.csf.NumFibers())
	case e.blocked != nil:
		nnz = int64(e.blocked.NNZ())
		for _, blk := range e.blocked.Blocks {
			if blk != nil {
				fibers += int64(blk.NumFibers())
				blocks++
			}
		}
	}
	strips := 0
	if bs := e.rankBlock(r); bs < r {
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

// initPool defines the executor's work units for its method and hands
// them to the pool with their cumulative weight and the unit body that
// runs a range of them. Called once from NewExecutor, after the tensor
// structures exist.
//
//spblock:coldpath
func (e *Executor) initPool() {
	p := &e.ws.pool
	switch e.plan.Method {
	case MethodCOO:
		p.Build(&e.met, e.plan.Workers, e.plan.Sched, sched.SplitOrdered, e.coo.NNZ(), nil, e.cooUnit)
	case MethodSPLATT, MethodRankB:
		// CSF slice ranges weighted by nonzero count.
		csf := e.csf
		cum := func(i int) int64 { return int64(csf.FiberPtr[csf.SlicePtr[i+1]]) }
		unit := e.splattUnit
		if e.plan.Method == MethodRankB {
			unit = e.rankBUnit
		}
		p.Build(&e.met, e.plan.Workers, e.plan.Sched, sched.SplitShares, csf.NumSlices(), cum, unit)
	case MethodMB, MethodMBRankB:
		// Mode-1 block layers: the static layout is one shared layer
		// counter; the stealing layout regroups layers into
		// nnz-balanced chunks, so a worker stuck on a dense layer does
		// not serialise the tail of the queue behind it.
		p.Build(&e.met, e.plan.Workers, e.plan.Sched, sched.SplitLayers, e.blocked.Grid[0], layerCum(e.blocked), e.mbUnit)
	}
}

// cooUnit runs one worker's nonzero range into its privatised output.
// The ordered split hands each worker exactly one range per run, so
// the output is zeroed here once per run.
//
//spblock:hotpath
func (e *Executor) cooUnit(w, lo, hi int) {
	ws := &e.ws
	priv := ws.privates[w]
	priv.Zero()
	cooRange(e.coo, ws.b, ws.c, priv, lo, hi)
}

// splattUnit runs Algorithm 1 over the CSF slices [lo, hi).
//
//spblock:hotpath
func (e *Executor) splattUnit(w, lo, hi int) {
	ws := &e.ws
	splattRange(e.csf, ws.b, ws.c, ws.out, ws.accums[w][:ws.out.Cols], lo, hi)
}

// rankBUnit runs Algorithm 2 over the CSF slices [lo, hi) of the
// current strip.
//
//spblock:hotpath
func (e *Executor) rankBUnit(w, lo, hi int) {
	ws := &e.ws
	rankBRange(e.csf, ws.b, ws.c, ws.out, &ws.kern, ws.bs, lo, hi)
}

// mbUnit runs the blocked kernel over the mode-1 layers [lo, hi); a
// nonzero ws.bs applies rank blocking inside each block (MB+RankB).
//
//spblock:hotpath
func (e *Executor) mbUnit(w, lo, hi int) {
	ws := &e.ws
	for bi := lo; bi < hi; bi++ {
		mbLayer(e.blocked, ws.b, ws.c, ws.out, &ws.kern, ws.bs, bi, ws.accums[w][:ws.out.Cols])
	}
}

// layerCum returns the cumulative-nonzero weight function over the
// blocked tensor's mode-1 layers, for nnz-balanced steal chunks.
//
//spblock:coldpath
func layerCum(bt *BlockedTensor) func(int) int64 {
	prefix := make([]int64, bt.Grid[0])
	var total int64
	for bi := 0; bi < bt.Grid[0]; bi++ {
		for bj := 0; bj < bt.Grid[1]; bj++ {
			for bk := 0; bk < bt.Grid[2]; bk++ {
				if blk := bt.Blocks[(bi*bt.Grid[1]+bj)*bt.Grid[2]+bk]; blk != nil {
					total += int64(blk.NNZ())
				}
			}
		}
		prefix[bi] = total
	}
	return func(i int) int64 { return prefix[i] }
}
