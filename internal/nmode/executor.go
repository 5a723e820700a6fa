package nmode

import (
	"fmt"
	"runtime"
	"time"

	"spblock/internal/analysis/check"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
)

// Executor owns the preprocessed structures and pooled workspace for
// repeated MTTKRP products over one mode of an order-N tensor, for
// every kernel the library runs: the register-blocked and Algorithm 1
// tree walks and the coordinate kernel (Options.Algorithm).
// NewExecutor builds the mode-rooted CSF tree (or the blocked layout
// when opts.Grid asks for one) and validates it exactly once; Run then
// reuses pooled walkers, packed rank-strip buffers and the prebuilt
// workers of its sched.Pool, so steady-state calls perform no heap
// allocations.
//
// One Executor must not Run concurrently with itself; distinct
// Executors (e.g. distinct modes of an Engine) are independent.
type Executor struct {
	dims  []int
	mode  int
	order int
	opts  Options

	// Exactly one of csf / blocked / coo is non-nil; coo is the
	// caller's tensor, aliased (AlgCOO).
	csf     *CSF
	blocked *BlockedTensor
	coo     *Tensor
	// layers groups the non-empty blocks by their root-mode block
	// coordinate: blocks in different layers write disjoint output rows,
	// so layers are the parallel work units of the blocked path.
	layers [][]*CSF

	ws  nworkspace
	met metrics.Collector
}

// NewExecutor preprocesses t for mode-`mode` MTTKRP products under
// opts: the one mode of a NewEngine. The CSF mode order is
// DefaultModeOrder (output mode at the root, remaining modes by
// increasing length). An AlgCOO executor builds nothing and keeps t.
func NewExecutor(t *Tensor, mode int, opts Options) (*Executor, error) {
	e, err := NewEngine(t, opts, mode)
	if err != nil {
		return nil, err
	}
	return e.execs[mode], nil
}

// buildExecutor builds mode `mode`'s executor once NewEngine has
// validated t, mode and opts, so the builds below do not re-check the
// tensor.
func buildExecutor(t *Tensor, mode int, opts Options) (*Executor, error) {
	if opts.Algorithm == AlgCOO {
		opts.Grid, opts.RankBlockCols = nil, 0
		return newExecutor(t.Dims, mode, opts, nil, nil, t), nil
	}
	modeOrder := DefaultModeOrder(t.Dims, mode)
	grid, blocked, err := normalizeGrid(opts.Grid, t.Dims)
	if err != nil {
		return nil, err
	}
	if blocked {
		bt, err := buildBlocked(t, grid, modeOrder)
		if err != nil {
			return nil, err
		}
		return newExecutor(t.Dims, mode, opts, nil, bt, nil), nil
	}
	return newExecutor(t.Dims, mode, opts, build(t, modeOrder), nil, nil), nil
}

// validate rejects option values no executor can honour.
//
//spblock:coldpath
func (o Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("nmode: negative worker count %d", o.Workers)
	}
	if o.RankBlockCols < 0 {
		return fmt.Errorf("nmode: negative RankBlockCols %d", o.RankBlockCols)
	}
	if o.Algorithm > AlgCOO {
		return fmt.Errorf("nmode: unknown algorithm %d", o.Algorithm)
	}
	return nil
}

// newExecutor wraps a built structure whose root is mode, or the
// tensor an AlgCOO executor reads: exactly one of csf, bt and coo is
// non-nil, and opts has been validated. It is shared by NewExecutor
// and the one-shot products over a caller's tree or blocked layout.
//
//spblock:coldpath
func newExecutor(dims []int, mode int, opts Options, csf *CSF, bt *BlockedTensor, coo *Tensor) *Executor {
	e := &Executor{
		dims:    append([]int(nil), dims...),
		mode:    mode,
		order:   len(dims),
		opts:    opts,
		csf:     csf,
		blocked: bt,
		coo:     coo,
	}
	if bt != nil {
		e.layers = rootLayers(bt, mode)
	}
	if check.Enabled {
		switch {
		case bt != nil:
			check.Must("nmode.NewExecutor", validateBlocked(bt))
		case csf != nil:
			check.Must("nmode.NewExecutor", validateTree(csf))
		}
	}
	e.initPool()
	return e
}

// SetWorkers re-sizes the executor's parallelism mid-life to n workers
// (0 = GOMAXPROCS): the worker pool rebuilds its runners, queue
// layout and metrics buckets (see sched.Pool.Resize) while the
// preprocessed tree structures are kept. Never call it concurrently
// with Run.
//
//spblock:coldpath
func (e *Executor) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("nmode: negative worker count %d", n)
	}
	e.opts.Workers = n
	e.ws.pool.Resize(n)
	// Force the next Run through ensure so the per-worker walkers
	// re-size at the new width.
	e.ws.rank = 0
	return nil
}

// Workers reports the executor's configured parallelism, as set by
// NewExecutor or the last SetWorkers, with 0 resolved to GOMAXPROCS.
func (e *Executor) Workers() int {
	if e.opts.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.opts.Workers
}

// Mode returns the output mode this executor serves.
func (e *Executor) Mode() int { return e.mode }

// Kernel reports the register-block fiber kernel variant the executor
// dispatches through, resolved from the effective strip width on the
// first Run at a given rank (the zero Variant before any Run). It is
// resolved with or without rank strips: an unstripped executor runs the
// whole rank as one strip. AlgAccumulator and AlgCOO executors never
// resolve one.
func (e *Executor) Kernel() kernel.Variant { return e.ws.kern.Variant }

// Metrics returns the executor's instrumentation collector: per-Run
// counters and per-worker time buckets, always collecting. Snapshot it
// between Runs, never mid-Run.
func (e *Executor) Metrics() *metrics.Collector { return &e.met }

// Dims returns the tensor shape.
func (e *Executor) Dims() []int { return e.dims }

// Order returns the number of modes.
func (e *Executor) Order() int { return e.order }

// NNZ returns the nonzero count of the preprocessed tensor.
//
//spblock:hotpath
func (e *Executor) NNZ() int {
	switch {
	case e.blocked != nil:
		return e.blocked.NNZ()
	case e.coo != nil:
		return e.coo.NNZ()
	}
	return e.csf.NNZ()
}

// MemoryBytes reports the footprint of the executor's preprocessed
// structure — the tree, the blocks' trees, or the aliased coordinates
// and values of an AlgCOO executor — the storage a long-lived executor
// cache charges against its byte budget.
func (e *Executor) MemoryBytes() int64 {
	switch {
	case e.blocked != nil:
		var s int64
		for _, layer := range e.layers {
			for _, blk := range layer {
				s += blk.MemoryBytes()
			}
		}
		return s
	case e.coo != nil:
		return int64(e.coo.NNZ()) * int64(4*e.order+8)
	}
	return e.csf.MemoryBytes()
}

// Run computes out = MTTKRP over the executor's mode. factors is
// indexed by mode (the output mode's entry may be nil); out must be
// dims[mode] x R and is zeroed first. Steady-state calls at a fixed
// rank are allocation-free; a rank change re-sizes the pooled buffers
// once.
//
//spblock:hotpath
func (e *Executor) Run(factors []*la.Matrix, out *la.Matrix) error {
	if err := e.checkOperands(factors, out); err != nil {
		return err
	}
	r := out.Cols
	e.ensure(r)
	start := time.Now()
	out.Zero()
	if e.NNZ() == 0 {
		e.met.EndRun(start)
		return nil
	}
	bs := e.opts.RankBlockCols
	if bs <= 0 || bs >= r {
		e.runAll(factors, out)
		e.met.EndRun(start)
		return nil
	}
	// Rank strips (Sec. V-B): pack each operand strip into the pooled
	// contiguous buffers, reusing the workspace's view headers.
	ws := &e.ws
	for rr := 0; rr < r; rr += bs {
		w := min(bs, r-rr)
		for m := 0; m < e.order; m++ {
			if m == e.mode {
				ws.pf[m] = nil
				continue
			}
			pv := &ws.views[m]
			la.SetStrip(pv, ws.packed[m], 0, w)
			la.PackStrip(pv, factors[m], rr)
			ws.pf[m] = pv
		}
		po := &ws.oView
		la.SetStrip(po, ws.oPack, 0, w)
		po.Zero()
		e.runAll(ws.pf, po)
		la.UnpackStrip(out, po, rr)
	}
	e.met.EndRun(start)
	return nil
}

//spblock:coldpath
func (e *Executor) checkOperands(factors []*la.Matrix, out *la.Matrix) error {
	if len(factors) != e.order {
		return fmt.Errorf("nmode: %d factors for order-%d tensor", len(factors), e.order)
	}
	r := out.Cols
	if r <= 0 {
		return fmt.Errorf("nmode: rank must be positive")
	}
	if out.Rows != e.dims[e.mode] {
		return fmt.Errorf("nmode: out has %d rows, want %d", out.Rows, e.dims[e.mode])
	}
	for m := 0; m < e.order; m++ {
		if m == e.mode {
			continue
		}
		f := factors[m]
		if f == nil {
			return fmt.Errorf("nmode: missing factor for mode %d", m)
		}
		if f.Cols != r || f.Rows != e.dims[m] {
			return fmt.Errorf("nmode: factor for mode %d is %dx%d, want %dx%d",
				m, f.Rows, f.Cols, e.dims[m], r)
		}
	}
	return nil
}

// runAll walks every tree once with the given operands through the
// pool, then reduces an AlgCOO executor's private outputs into out in
// worker order (a sequential pool writes out directly and has none).
// The operands are unpublished afterwards, so a long-lived executor
// does not keep a finished job's matrices alive.
//
//spblock:hotpath
func (e *Executor) runAll(factors []*la.Matrix, out *la.Matrix) {
	ws := &e.ws
	ws.factors, ws.out = factors, out
	ws.pool.Run()
	for _, priv := range ws.privates {
		for i := 0; i < out.Rows; i++ {
			kernel.Add(out.Row(i), priv.Row(i))
		}
	}
	ws.factors, ws.out = nil, nil
	for _, wk := range ws.walkers {
		wk.factors, wk.out = nil, nil
	}
}

// normalizeGrid clamps a requested grid to the tensor shape. Returns
// blocked=false when the request is nil or degenerates to all ones.
func normalizeGrid(grid, dims []int) ([]int, bool, error) {
	if len(grid) == 0 {
		return nil, false, nil
	}
	if len(grid) != len(dims) {
		return nil, false, fmt.Errorf("%w: grid %v for order-%d tensor", ErrBadTensor, grid, len(dims))
	}
	out := make([]int, len(grid))
	blocked := false
	for m, g := range grid {
		if g < 1 {
			g = 1
		}
		if g > dims[m] {
			g = dims[m]
		}
		out[m] = g
		if g > 1 {
			blocked = true
		}
	}
	return out, blocked, nil
}

// rootLayers buckets the non-empty blocks by their root-mode block
// coordinate. Blocks in one layer share output rows (they run
// sequentially within a worker); distinct layers are disjoint in the
// output, so workers claim whole layers from an atomic queue.
func rootLayers(bt *BlockedTensor, rootMode int) [][]*CSF {
	stride := 1
	for m := rootMode + 1; m < len(bt.Grid); m++ {
		stride *= bt.Grid[m]
	}
	byCoord := make([][]*CSF, bt.Grid[rootMode])
	for id, blk := range bt.Blocks {
		if blk == nil {
			continue
		}
		li := (id / stride) % bt.Grid[rootMode]
		byCoord[li] = append(byCoord[li], blk)
	}
	layers := byCoord[:0]
	for _, layer := range byCoord {
		if len(layer) > 0 {
			layers = append(layers, layer)
		}
	}
	return layers
}
