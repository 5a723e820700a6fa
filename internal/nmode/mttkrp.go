package nmode

import (
	"fmt"

	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/sched"
)

// Options configures the N-mode MTTKRP.
type Options struct {
	// RankBlockCols is the rank-blocking strip width (0 = whole rank).
	// Strips are packed into contiguous buffers exactly as the
	// third-order kernels do (Sec. V-B).
	RankBlockCols int
	// Workers is the parallelism degree over root slices or block
	// layers (0 = GOMAXPROCS).
	Workers int
	// Grid requests multi-dimensional blocking (Sec. V-A) with one entry
	// per mode; nil or all-ones means unblocked. Entries are clamped to
	// [1, dim]. Only Executor and Engine honour it — the one-shot
	// products below run over an already-built tree or blocked layout.
	Grid []int
	// Sched selects the work-distribution policy (internal/sched),
	// mirroring core.Plan.Sched: zero value static, PolicySteal chunked
	// work-stealing over root ranges or block layers, PolicyAdaptive
	// static with metrics-driven promotion. Every product honours it,
	// one-shot included, although a one-shot run ends before an
	// adaptive executor could promote. AlgCOO always runs static.
	Sched sched.Policy
	// Algorithm selects the product's body. The zero value is the
	// register-blocked tree walk; see Algorithm.
	Algorithm Algorithm
}

// Algorithm selects how an Executor computes its product.
type Algorithm uint8

const (
	// AlgRegister walks the CSF tree and sums each fiber in registers
	// through the resolved width-specialised kernel (Sec. V-B,
	// Algorithm 2).
	AlgRegister Algorithm = iota
	// AlgAccumulator walks the same tree but sums each fiber in an
	// accumulator array — clear, one kernel.Axpy per nonzero, then
	// kernel.ScaleAdd — as the paper's baseline Algorithm 1 does. Each
	// output element sees the same operations in the same order as
	// under AlgRegister, so the two are bit-identical; only the memory
	// traffic differs.
	AlgAccumulator
	// AlgCOO skips the tree and runs the coordinate kernel over nonzero
	// ranges of the caller's tensor (Sec. III-C1), which the executor
	// keeps aliased: rewriting t.Val in place between runs is seen by
	// the next run. Parallel workers accumulate into private outputs,
	// reduced in worker order, so the layout always runs static. Grid
	// and RankBlockCols are ignored.
	AlgCOO
)

// MTTKRP computes the mode-ModeOrder[0] matricised tensor times
// Khatri-Rao product:
//
//	out[i] += Σ_{leaves under i} val · ⊙_{d>0} factors[ModeOrder[d]][id_d]
//
// factors is indexed by mode; the entry for the output mode may be nil.
// out must be Dims[ModeOrder[0]] x R and is zeroed first. It builds an
// Executor over c and runs it once; repeated products should build an
// Executor instead.
func MTTKRP(c *CSF, factors []*la.Matrix, out *la.Matrix, opts Options) error {
	if err := c.Validate(); err != nil {
		return err
	}
	return runOnce(c.Dims, c.ModeOrder[0], opts, c, nil, factors, out)
}

// runOnce builds an executor over a caller's tree or blocked layout
// (exactly one non-nil) and runs it once — the one-shot entry points.
func runOnce(dims []int, mode int, opts Options, c *CSF, bt *BlockedTensor, factors []*la.Matrix, out *la.Matrix) error {
	if len(dims) < 2 {
		return fmt.Errorf("nmode: MTTKRP needs order >= 2, got %d", len(dims))
	}
	if err := opts.validate(); err != nil {
		return err
	}
	if opts.Algorithm == AlgCOO {
		return fmt.Errorf("nmode: AlgCOO needs a coordinate tensor, not a built tree")
	}
	return newExecutor(dims, mode, opts, c, bt, nil).Run(factors, out)
}

// Walker is a reusable, exported handle on the pooled DFS state for
// callers outside this package (the out-of-core executor): size it once
// for an order and rank, then Walk any number of CSF trees of that
// order at up to that rank. Accumulation order inside Walk is exactly
// the in-memory executor's — same resolved kernel variant, same
// root-major DFS — so walking blocks in the executor's block order
// reproduces its output bit for bit.
type Walker struct {
	w *walker
}

// NewWalker sizes a Walker for order-`order` trees at rank `rank`,
// resolving the same width-specialized fiber kernel the in-memory
// executors use at that rank.
func NewWalker(order, rank int) *Walker {
	return &Walker{w: newWalkerBufs(order, rank, kernel.Resolve(rank))}
}

// Kernel reports the resolved fiber kernel's name (for metrics).
func (wk *Walker) Kernel() string { return wk.w.kern.Name }

// Walk accumulates c's MTTKRP contribution into out (not zeroed here:
// the caller owns the block loop and zeroes once per product).
//
//spblock:hotpath
func (wk *Walker) Walk(c *CSF, factors []*la.Matrix, out *la.Matrix) {
	w := wk.w
	w.bind(c, factors, out)
	w.roots(0, c.NumNodes(0))
}

// walker carries the per-goroutine DFS state. A root adds straight into
// its output row, and a fiber (a level order-2 node) keeps its sum in
// registers and adds it, scaled by its factor row, into its parent's
// destination (Algorithm 2's fused epilogue). So only the levels
// strictly between the root and the fibers need an accumulator:
// bufs[d], 1 <= d <= order-3, holds the running value of the current
// level-d node — none at order 3, one at order 4 (bufs[0] is unused).
//
// A walker owns only its accumulators; the tree and operands are bound
// per use, so a pooled walker can serve many trees (blocked layouts)
// and many rank strips without reallocating.
//
//spblock:workspace
type walker struct {
	c       *CSF
	factors []*la.Matrix
	out     *la.Matrix
	bufs    [][]float64
	// ones is the scale row of an order-2 root, which is itself a
	// fiber with no factor row above it (x·1 == x exactly).
	ones []float64
	// acc, when non-nil, is Algorithm 1's fiber accumulator array: the
	// AlgAccumulator body sums each fiber here instead of in registers.
	acc   []float64
	width int
	// kern is the register-block kernel variant for the walker's
	// effective strip width, resolved once on the owner's cold path
	// (Executor.ensure or NewWalker); fibers dispatches through these
	// cached function pointers.
	kern kernel.Strip
}

// newWalkerBufs allocates the accumulators for an order-`order` tree at
// up to `rank` columns; bind narrows the active width per use. kern is
// the variant resolved from the caller's effective strip width — taking
// it here guarantees no construction path leaves the walker without
// dispatchable fiber kernels.
func newWalkerBufs(order, rank int, kern kernel.Strip) *walker {
	w := &walker{kern: kern}
	if order == 2 {
		w.ones = make([]float64, rank)
		for q := range w.ones {
			w.ones[q] = 1
		}
	}
	w.bufs = make([][]float64, max(order-2, 0))
	for d := 1; d < len(w.bufs); d++ {
		w.bufs[d] = make([]float64, rank)
	}
	return w //spblock:allow constructor hands a fresh walker to its owning workspace
}

// bind points the walker at a tree and operand set. out.Cols must not
// exceed the rank the accumulators were sized for.
//
//spblock:hotpath
func (w *walker) bind(c *CSF, factors []*la.Matrix, out *la.Matrix) {
	w.c, w.factors, w.out = c, factors, out
	w.width = out.Cols
}

// roots adds the subtree values of roots [lo, hi) straight into their
// output rows. An order-2 root is itself a fiber with no factor row
// above it.
//
//spblock:hotpath
func (w *walker) roots(lo, hi int) {
	c := w.c
	for root := lo; root < hi; root++ {
		dst := w.out.Row(int(c.ID[0][root]))
		if c.Order() == 2 {
			w.fibers(int32(root), int32(root+1), dst, nil)
			continue
		}
		w.node(0, int32(root), dst)
	}
}

// node adds the subtree value of the level-d node nd into dst:
// Σ over leaves below of val · ⊙_{levels e>d} U_{m_e}[id_e]. d is at
// most order-3, so nd's children are fibers or internal nodes.
//
//spblock:hotpath
func (w *walker) node(d int, nd int32, dst []float64) {
	c := w.c
	mid := w.factors[c.ModeOrder[d+1]]
	lo, hi := c.Ptr[d][nd], c.Ptr[d][nd+1]
	if d == c.Order()-3 {
		w.fibers(lo, hi, dst, mid)
		return
	}
	acc := w.bufs[d+1][:w.width]
	for ch := lo; ch < hi; ch++ {
		clear(acc)
		w.node(d+1, ch, acc)
		kernel.ScaleAdd(dst, acc, mid.Row(int(c.ID[d+1][ch])))
	}
}

// fibers adds the leaf sums of fibers [lo, hi) (level order-2 nodes)
// into dst, each scaled by its row of mid (by ones when mid is nil).
// The register body sweeps a fiber once per register block of the
// resolved width-specialized kernel; kernel.Resolve guarantees every
// tail is narrower than kernel.MaxWidth (it trails an unrolled block,
// or the whole strip is below kernel.MinWidth). A walker with an
// accumulator array runs accFibers instead.
//
//spblock:hotpath
func (w *walker) fibers(lo, hi int32, dst []float64, mid *la.Matrix) {
	if w.acc != nil {
		w.accFibers(lo, hi, dst, mid)
		return
	}
	c := w.c
	n := c.Order()
	leaf := w.factors[c.ModeOrder[n-1]]
	vals, ids, ptr, fid := c.Val, c.ID[n-1], c.Ptr[n-2], c.ID[n-2]
	kern, width := &w.kern, w.width
	for f := lo; f < hi; f++ {
		scale := w.ones
		if mid != nil {
			scale = mid.Row(int(fid[f]))
		}
		pLo, pHi := int(ptr[f]), int(ptr[f+1])
		r0 := 0
		if kw := kern.Width; kw > 0 {
			for ; r0+kw <= width; r0 += kw {
				kern.Fiber(vals, ids, leaf, dst, scale, pLo, pHi, r0)
			}
		}
		if r0 < width {
			kern.FiberTail(vals, ids, leaf, dst, scale, pLo, pHi, r0, width)
		}
	}
}

// accFibers is fibers with Algorithm 1's body: each fiber is summed
// over the whole width into the accumulator array (clear, one Axpy per
// nonzero), then added into dst scaled by its row of mid. Every
// element sees the register body's operations in the same order.
//
//spblock:hotpath
func (w *walker) accFibers(lo, hi int32, dst []float64, mid *la.Matrix) {
	c := w.c
	n := c.Order()
	leaf := w.factors[c.ModeOrder[n-1]]
	vals, ids, ptr, fid := c.Val, c.ID[n-1], c.Ptr[n-2], c.ID[n-2]
	acc := w.acc[:w.width]
	for f := lo; f < hi; f++ {
		scale := w.ones
		if mid != nil {
			scale = mid.Row(int(fid[f]))
		}
		clear(acc)
		for p := ptr[f]; p < ptr[f+1]; p++ {
			kernel.Axpy(acc, vals[p], leaf.Row(int(ids[p])))
		}
		kernel.ScaleAdd(dst, acc, scale)
	}
}

// coo adds the coordinate-form product of nonzeros [lo, hi) of t into
// w.out: out[i] += v · ⊙ of the other modes' factor rows, in ascending
// mode order (Sec. III-C1). Order 3 is kernel.KRPAxpy's
// (v·b[q])·c[q]; higher orders build the same left-to-right product in
// the walker's first accumulator before the final multiply-add.
//
//spblock:hotpath
func (w *walker) coo(t *Tensor, mode, lo, hi int) {
	f, out := w.factors, w.out
	first, last := 0, len(f)-1
	if mode == first {
		first++
	}
	if mode == last {
		last--
	}
	vals, oid := t.Val, t.Idx[mode]
	a, aid := f[first], t.Idx[first]
	if first == last {
		for p := lo; p < hi; p++ {
			kernel.Axpy(out.Row(int(oid[p])), vals[p], a.Row(int(aid[p])))
		}
		return
	}
	z, zid := f[last], t.Idx[last]
	if len(f) == 3 {
		for p := lo; p < hi; p++ {
			kernel.KRPAxpy(out.Row(int(oid[p])), vals[p], a.Row(int(aid[p])), z.Row(int(zid[p])))
		}
		return
	}
	buf := w.bufs[1][:w.width]
	for p := lo; p < hi; p++ {
		v := vals[p]
		for q, x := range a.Row(int(aid[p]))[:len(buf)] {
			buf[q] = v * x
		}
		for m := first + 1; m < last; m++ {
			if m == mode {
				continue
			}
			row := f[m].Row(int(t.Idx[m][p]))
			for q := range buf {
				buf[q] *= row[q]
			}
		}
		kernel.ScaleAdd(out.Row(int(oid[p])), buf, z.Row(int(zid[p])))
	}
}
