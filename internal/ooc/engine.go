package ooc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
)

// Options configures the out-of-core executor.
type Options struct {
	// BudgetBytes bounds the decoded working set: the pipeline holds
	// BudgetBytes / Manifest.SlotBytes() block slots (clamped to
	// [1, number of blocks]). 0 means the minimum overlapping
	// pipeline of two slots. Factor matrices and the output are the
	// caller's and not counted.
	BudgetBytes int64
	// Decoders is the number of parallel read+decode goroutines,
	// clamped to [1, slot count]. Default 2.
	Decoders int
}

// block is one prefetch slot: the raw read buffer, the decoded
// coordinates, and the slot's CSF with the Builder that rebuilds it.
// Every slot is sized for the largest staged block at Open, so the
// steady-state pipeline never grows a buffer.
type block struct {
	seq    int
	failed bool

	raw  []byte
	span nmode.Span
	bld  *nmode.Builder
	csf  nmode.CSF
}

// slotFootprint is the decoded per-slot memory estimate Open sizes
// budgets against: raw records, coordinate/value arrays, sort scratch,
// counting-sort buckets, and the CSF backing arrays.
func slotFootprint(order, nnz, maxLocalDim int) int64 {
	n := int64(nnz)
	o := int64(order)
	s := n * int64(recordBytes(order)) // raw
	s += o * 4 * n                     // idx
	s += 8 * n                         // val
	s += 2 * 4 * n                     // perm + tmp
	s += 4 * int64(maxLocalDim+1)      // counts
	s += o * 4 * n                     // csf ids
	s += (o - 1) * 4 * (n + 1)         // csf ptrs
	s += 8 * n                         // csf vals
	return s
}

// Engine runs MTTKRP products over a staged tensor with a bounded
// working set, implementing als.Kernel so the shared CP-ALS sweep loop
// drives it unchanged. Blocks flow through a depth-bounded pipeline:
// decoder goroutines take a free slot, claim the next block index from
// an atomic counter, read and decode the block into the slot, and hand
// it to the consuming Run goroutine, which reorders them into flat block-id order (the order
// that makes the output bit-identical to the in-memory blocked
// executor), walks each with the pooled kernel walker, and recycles
// the slot through the free list. Steady-state products perform no
// heap allocations.
//
// Like the in-memory executors, an Engine must not run two products
// concurrently with itself.
type Engine struct {
	src   BlockSource
	man   *Manifest
	order int
	dims  []int
	bases [][]nmode.Index // bases[i][m]: block i's base coordinate in mode m

	modeOrders [][]int
	depth      int
	ndec       int
	slotBytes  int64

	freec  chan *block
	outc   chan *block
	ring   []*block
	decFns []func()
	wg     sync.WaitGroup
	next   atomic.Int64
	abort  atomic.Bool
	errMu  sync.Mutex
	runErr error
	mode   int

	rank int
	wk   *nmode.Walker
	met  []metrics.Collector
}

// Open opens a staged directory as an out-of-core engine.
func Open(dir string, opts Options) (*Engine, error) {
	src, err := OpenSource(dir)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(src, opts)
	if err != nil {
		src.Close()
		return nil, err
	}
	return e, nil
}

// NewEngine builds the prefetch pipeline over an already-open source.
// The engine takes ownership of src: Close closes it.
func NewEngine(src BlockSource, opts Options) (*Engine, error) {
	man := src.Manifest()
	order := man.Order()
	if opts.Decoders < 0 {
		return nil, fmt.Errorf("ooc: negative decoder count %d", opts.Decoders)
	}
	if opts.BudgetBytes < 0 {
		return nil, fmt.Errorf("ooc: negative budget %d", opts.BudgetBytes)
	}
	e := &Engine{
		src:   src,
		man:   man,
		order: order,
		dims:  append([]int(nil), man.Dims...),
	}
	blockDims := man.BlockDims()
	e.bases = make([][]nmode.Index, len(man.Blocks))
	for i, b := range man.Blocks {
		base := make([]nmode.Index, order)
		id := b.ID
		for m := order - 1; m >= 0; m-- {
			base[m] = nmode.Index((id % man.Grid[m]) * blockDims[m])
			id /= man.Grid[m]
		}
		e.bases[i] = base
	}
	e.modeOrders = make([][]int, order)
	for m := 0; m < order; m++ {
		e.modeOrders[m] = nmode.DefaultModeOrder(e.dims, m)
	}

	nb := len(man.Blocks)
	maxNNZ := man.maxBlockNNZ()
	e.slotBytes = slotFootprint(order, maxNNZ, slices.Max(blockDims))
	depth := 2
	if opts.BudgetBytes > 0 {
		depth = int(opts.BudgetBytes / e.slotBytes)
	}
	if depth < 1 {
		depth = 1
	}
	if nb > 0 && depth > nb {
		depth = nb
	}
	e.depth = depth
	ndec := opts.Decoders
	if ndec == 0 {
		ndec = 2
	}
	if ndec > depth {
		ndec = depth
	}
	e.ndec = ndec

	e.freec = make(chan *block, depth)
	e.outc = make(chan *block, depth)
	e.ring = make([]*block, depth)
	for i := 0; i < depth; i++ {
		e.freec <- newSlot(order, maxNNZ, blockDims, e.dims)
	}
	e.decFns = make([]func(), ndec)
	for w := 0; w < ndec; w++ {
		e.decFns[w] = e.decodeLoop(w)
	}
	e.met = make([]metrics.Collector, order)
	for m := range e.met {
		e.met[m].SizeWorkers(1)
		e.met[m].SizePrefetchers(ndec)
	}
	return e, nil
}

func newSlot(order, maxNNZ int, blockDims, dims []int) *block {
	b := &block{
		raw:  make([]byte, maxNNZ*recordBytes(order)),
		span: nmode.Span{Idx: make([][]nmode.Index, order), Ext: blockDims},
		bld:  nmode.NewBuilder(order, maxNNZ, slices.Max(blockDims)),
		csf: nmode.CSF{
			Dims: dims,
			ID:   make([][]nmode.Index, order),
			Ptr:  make([][]int32, order-1),
			Val:  make([]float64, 0, maxNNZ),
		},
	}
	for m := 0; m < order; m++ {
		b.span.Idx[m] = make([]nmode.Index, maxNNZ)
		b.csf.ID[m] = make([]nmode.Index, 0, maxNNZ)
	}
	for d := 0; d < order-1; d++ {
		b.csf.Ptr[d] = make([]int32, 0, maxNNZ+1)
	}
	b.span.Val = make([]float64, maxNNZ)
	return b
}

// Close releases the block source. The engine must be quiescent.
func (e *Engine) Close() error { return e.src.Close() }

// Dims returns the tensor shape (als.Kernel).
func (e *Engine) Dims() []int { return e.dims }

// NNZ returns the staged nonzero count.
func (e *Engine) NNZ() int64 { return e.man.NNZ }

// NormSq returns Σv² accumulated in file order at staging time — the
// ‖X‖² the CP-ALS fit identity needs, with the same summation order as
// the in-memory drivers.
func (e *Engine) NormSq() float64 { return e.man.NormSq }

// NumBlocks returns the number of non-empty staged blocks.
func (e *Engine) NumBlocks() int { return len(e.man.Blocks) }

// Depth returns the pipeline depth in slots — the resident working set
// BudgetBytes bought.
func (e *Engine) Depth() int { return e.depth }

// Decoders returns the decoder goroutine count.
func (e *Engine) Decoders() int { return e.ndec }

// WorkingSetBytes returns the decoded resident footprint (depth×slot).
func (e *Engine) WorkingSetBytes() int64 { return e.slotBytes * int64(e.depth) }

// Metrics returns mode m's collector (IO-wait, prefetch busy time and
// the usual per-run counters). Snapshot between products, never mid
// product.
func (e *Engine) Metrics(mode int) *metrics.Collector { return &e.met[mode] }

//spblock:coldpath
func (e *Engine) checkOperands(mode int, factors []*la.Matrix, out *la.Matrix) error {
	if mode < 0 || mode >= e.order {
		return fmt.Errorf("ooc: mode %d out of range [0,%d)", mode, e.order)
	}
	if len(factors) != e.order {
		return fmt.Errorf("ooc: %d factors for order-%d tensor", len(factors), e.order)
	}
	r := out.Cols
	if r <= 0 {
		return fmt.Errorf("ooc: rank must be positive")
	}
	if out.Rows != e.dims[mode] {
		return fmt.Errorf("ooc: out has %d rows, want %d", out.Rows, e.dims[mode])
	}
	for m := 0; m < e.order; m++ {
		if m == mode {
			continue
		}
		f := factors[m]
		if f == nil {
			return fmt.Errorf("ooc: missing factor for mode %d", m)
		}
		if f.Cols != r || f.Rows != e.dims[m] {
			return fmt.Errorf("ooc: factor for mode %d is %dx%d, want %dx%d",
				m, f.Rows, f.Cols, e.dims[m], r)
		}
	}
	return nil
}

// ensure re-sizes the pooled walker on rank changes — the engine's
// amortised cold path, mirroring the in-memory executors.
//
//spblock:coldpath
func (e *Engine) ensure(r int) {
	if e.rank == r {
		return
	}
	e.rank = r
	e.wk = nmode.NewWalker(e.order, r)
	for m := range e.met {
		e.met[m].SetKernel(e.wk.Kernel())
		// Fibers are unknown without building every tree; the traffic
		// estimate prices the nnz terms only.
		e.met[m].SetPerRun(metrics.PerRun{
			NNZ:      e.man.NNZ,
			Blocks:   int64(len(e.man.Blocks)),
			BytesEst: metrics.EqBytes(e.man.NNZ, 0, r, 1),
		})
	}
}

// MTTKRP streams the staged blocks through the prefetch pipeline and
// accumulates the mode-`mode` product into out (als.Kernel). Blocks
// are consumed in flat block-id order — ascending id within every root
// layer — so the per-row accumulation order, and therefore every
// output bit, matches the in-memory blocked executor at any worker
// count. Steady-state calls at a fixed rank are allocation-free.
//
//spblock:hotpath
func (e *Engine) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	if err := e.checkOperands(mode, factors, out); err != nil {
		return err
	}
	e.ensure(out.Cols)
	met := &e.met[mode]
	start := time.Now()
	out.Zero()
	nb := len(e.man.Blocks)
	if nb == 0 {
		met.EndRun(start)
		return nil
	}
	e.mode = mode
	e.runErr = nil
	e.abort.Store(false)
	e.next.Store(0)
	e.wg.Add(e.ndec)
	for _, fn := range e.decFns {
		go fn()
	}
	for want := 0; want < nb; {
		b := e.ring[want%e.depth]
		if b == nil {
			t0 := time.Now()
			got := <-e.outc
			met.AddIOWait(time.Since(t0))
			e.ring[got.seq%e.depth] = got
			continue
		}
		e.ring[want%e.depth] = nil
		if b.seq != want {
			e.outOfOrder(b.seq, want)
		}
		if !b.failed && !e.abort.Load() {
			e.wk.Walk(&b.csf, factors, out)
		}
		b.failed = false
		e.freec <- b
		want++
	}
	e.wg.Wait()
	met.EndRun(start)
	return e.runErr
}

// fail records the first decode error and stops further claims; the
// pipeline still drains every remaining sequence slot so the run ends
// without a hang.
func (e *Engine) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.errMu.Unlock()
	e.abort.Store(true)
}

// outOfOrder fails the run when the ring hands the consumer a block
// other than the one it waits for: walking it would reorder the
// per-row accumulation and silently change output bits.
//
//spblock:coldpath
func (e *Engine) outOfOrder(seq, want int) {
	e.fail(fmt.Errorf("ooc: pipeline delivered block %d in place of block %d", seq, want))
}

// decodeLoop builds decoder w's prebuilt goroutine body: take a free
// slot, claim the next block index, read + decode + build the CSF,
// hand the slot to the consumer. Busy time (read+decode only, not
// backpressure waits) goes to the decoder's prefetch bucket.
//
// The slot comes before the claim. Every claimed index then holds one
// of the depth slots until the consumer walks it, so all blocks in
// flight lie in [want, want+depth) and map to distinct ring positions.
// Claiming first would let a decoder sit on index want without a slot
// while later indices fill the ring and one lands in want's position.
func (e *Engine) decodeLoop(w int) func() {
	return func() {
		defer e.wg.Done()
		nb := int64(len(e.man.Blocks))
		for {
			b := <-e.freec
			i := e.next.Add(1) - 1
			if i >= nb {
				e.freec <- b
				return
			}
			b.seq = int(i)
			if e.abort.Load() {
				b.failed = true
			} else {
				t0 := time.Now()
				err := e.decode(b, int(i))
				e.met[e.mode].AddPrefetch(w, time.Since(t0))
				if err != nil {
					e.fail(err)
					b.failed = true
				}
			}
			e.outc <- b
		}
	}
}

// decode reads block i and rebuilds its CSF into b's pooled arrays:
// positioned read, record parse, then the one nmode.Builder with keys
// local to the block, which is the same call nmode.BuildBlocked makes
// for the in-memory block, so the tree (and the walk over it) is
// identical.
//
//spblock:hotpath
func (e *Engine) decode(b *block, i int) error {
	info := e.man.Blocks[i]
	nnz := info.NNZ
	raw := b.raw[:nnz*recordBytes(e.order)]
	if err := e.src.ReadBlock(info, raw); err != nil {
		return err
	}
	b.span.Val = b.span.Val[:nnz]
	parseRecords(raw, b.span.Idx, b.span.Val, nnz)
	b.span.Base = e.bases[i]
	b.bld.Tree(&b.csf, &b.span, e.modeOrders[e.mode])
	return nil
}

// parseRecords decodes nnz staged records into the coordinate and
// value arrays.
//
//spblock:hotpath
func parseRecords(raw []byte, idx [][]nmode.Index, val []float64, nnz int) {
	order := len(idx)
	off := 0
	for p := 0; p < nnz; p++ {
		for m := 0; m < order; m++ {
			idx[m][p] = nmode.Index(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
		}
		val[p] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
	}
}
