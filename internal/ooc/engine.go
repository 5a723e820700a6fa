package ooc

import (
	"encoding/binary"
	"fmt"
	"math"
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
// coordinates, and the per-slot CSF built over preallocated backing
// arrays. Every slot is sized for the largest staged block at Open, so
// the steady-state pipeline never grows a buffer.
type block struct {
	seq    int
	failed bool

	raw  []byte
	idx  [][]nmode.Index
	val  []float64
	perm []int32
	tmp  []int32

	csf  nmode.CSF
	ids  [][]nmode.Index
	ptrs [][]int32
	cval []float64

	counts []int32
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
	src    BlockSource
	man    *Manifest
	order  int
	dims   []int
	bases  [][]nmode.Index // bases[i][m]: block i's base coordinate in mode m
	maxDim []int           // per mode: block-local coordinate bound

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
	e.maxDim = blockDims
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
	maxLocal := man.maxBlockDim()
	e.slotBytes = slotFootprint(order, maxNNZ, maxLocal)
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
		e.freec <- newSlot(order, maxNNZ, maxLocal, e.dims)
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

func newSlot(order, maxNNZ, maxLocal int, dims []int) *block {
	b := &block{
		raw:    make([]byte, maxNNZ*recordBytes(order)),
		idx:    make([][]nmode.Index, order),
		val:    make([]float64, maxNNZ),
		perm:   make([]int32, maxNNZ),
		tmp:    make([]int32, maxNNZ),
		ids:    make([][]nmode.Index, order),
		ptrs:   make([][]int32, order-1),
		cval:   make([]float64, 0, maxNNZ),
		counts: make([]int32, maxLocal+1),
	}
	for m := 0; m < order; m++ {
		b.idx[m] = make([]nmode.Index, maxNNZ)
		b.ids[m] = make([]nmode.Index, 0, maxNNZ)
	}
	for d := 0; d < order-1; d++ {
		b.ptrs[d] = make([]int32, 0, maxNNZ+1)
	}
	b.csf.Dims = dims
	b.csf.ID = make([][]nmode.Index, order)
	b.csf.Ptr = make([][]int32, order-1)
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
// positioned read, record parse, stable block-local counting sort in
// the mode order, then the same boundary-based level emission
// nmode.Build uses — so the tree (and the walk over it) is identical
// to the in-memory BuildBlocked block.
//
//spblock:hotpath
func (e *Engine) decode(b *block, i int) error {
	info := e.man.Blocks[i]
	nnz := info.NNZ
	raw := b.raw[:nnz*recordBytes(e.order)]
	if err := e.src.ReadBlock(info, raw); err != nil {
		return err
	}
	parseRecords(raw, b.idx, b.val, nnz)
	mo := e.modeOrders[e.mode]
	perm := e.sortLocal(b, i, mo)
	e.buildCSF(b, mo, perm, nnz)
	return nil
}

// sortLocal stable-sorts block i's nonzeros lexicographically by mo
// (mo[0] most significant) via the same LSD counting sort as
// Tensor.SortByModes, but with block-local keys: coordinates shifted
// by the block base index into buckets bounded by the block edge
// length. The shift preserves order, and both sorts are stable, so
// the resulting permutation equals the in-memory sort's restriction
// to this block. Returns the permutation slice (perm or tmp,
// depending on pass parity).
//
//spblock:hotpath
func (e *Engine) sortLocal(b *block, i int, mo []int) []int32 {
	nnz := e.man.Blocks[i].NNZ
	base := e.bases[i]
	p := b.perm[:nnz]
	q := b.tmp[:nnz]
	for j := range p {
		p[j] = int32(j)
	}
	for lvl := e.order - 1; lvl >= 0; lvl-- {
		m := mo[lvl]
		key := b.idx[m]
		lo := base[m]
		nbk := e.maxDim[m]
		counts := b.counts[:nbk+1]
		clear(counts)
		for _, x := range p {
			counts[key[x]-lo+1]++
		}
		for d := 0; d < nbk; d++ {
			counts[d+1] += counts[d]
		}
		for _, x := range p {
			k := key[x] - lo
			q[counts[k]] = x
			counts[k]++
		}
		p, q = q, p
	}
	return p
}

// buildCSF emits the level ids and child pointers from the sorted
// order into the slot's preallocated backing arrays, replicating
// nmode.Build's boundary construction (duplicates of the predecessor
// still form their own leaf).
//
//spblock:hotpath
func (e *Engine) buildCSF(b *block, mo []int, perm []int32, nnz int) {
	n := e.order
	// The non-final sort buffer is free scratch now: reuse it for the
	// per-leaf boundary levels.
	bnd := b.tmp
	if &bnd[0] == &perm[0] {
		bnd = b.perm
	}
	bnd = bnd[:nnz]
	bnd[0] = 0
	for p := 1; p < nnz; p++ {
		bb := int32(n - 1)
		for d := 0; d < n; d++ {
			if b.idx[mo[d]][perm[p]] != b.idx[mo[d]][perm[p-1]] {
				bb = int32(d)
				break
			}
		}
		bnd[p] = bb
	}
	for d := 0; d < n; d++ {
		ids := b.ids[d][:0]
		key := b.idx[mo[d]]
		if d < n-1 {
			ptr := b.ptrs[d][:0]
			children := int32(0)
			for p := 0; p < nnz; p++ {
				if int(bnd[p]) <= d {
					ids = append(ids, key[perm[p]]) //spblock:allow slot arrays are pre-capped to the manifest's largest block at Open; AllocsPerRun pins 0
					ptr = append(ptr, children)     //spblock:allow same pre-capped slot backing as ids
				}
				if int(bnd[p]) <= d+1 {
					children++
				}
			}
			b.csf.Ptr[d] = append(ptr, children) //spblock:allow ptr capacity is nnz+1, reserved at slot construction
		} else {
			for p := 0; p < nnz; p++ {
				ids = append(ids, key[perm[p]]) //spblock:allow leaf ids share the same pre-capped slot backing
			}
		}
		b.csf.ID[d] = ids
	}
	cval := b.cval[:0]
	for p := 0; p < nnz; p++ {
		cval = append(cval, b.val[perm[p]]) //spblock:allow cval is pre-capped to the largest block's nnz at Open
	}
	b.csf.Val = cval
	b.csf.ModeOrder = mo
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
