package cachesim

import (
	"fmt"
	"slices"

	"spblock/internal/kernel"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Options configures a traced kernel execution.
type Options struct {
	// Rank is R, the number of factor columns. Required.
	Rank int
	// IndexBytes is the size of tensor indices/pointers: 4 matches this
	// library's layout, 8 matches the paper's byte model. Default 4.
	IndexBytes int
	// RankBlockCols is the strip width for TraceRankB. 0 or
	// >= Rank means one full-width strip (register blocking without
	// packing); anything smaller traces the packed-strip execution the
	// real kernels use.
	RankBlockCols int
	// NoStripPacking traces the ablation variant: strips are accessed
	// in place with stride R instead of being packed contiguously.
	NoStripPacking bool

	// Pressure points (Table I). Each removes or redirects part of the
	// access stream exactly as the paper's PPA variants do:
	SkipB          bool // type 1: accesses to B removed
	BRowZero       bool // type 2: every B access redirected to row 0 (stays in L1)
	SkipAccumLoads bool // type 3: accumulator load/store traffic and A loads eliminated (registers)
	SkipC          bool // type 4: accesses to C removed
	FlopsInner     bool // type 5: per-fiber flops moved into the inner loop (COO emulation)
}

func (o Options) withDefaults() (Options, error) {
	if o.Rank <= 0 {
		return o, fmt.Errorf("cachesim: Rank must be positive, got %d", o.Rank)
	}
	if o.IndexBytes == 0 {
		o.IndexBytes = 4
	}
	if o.IndexBytes != 4 && o.IndexBytes != 8 {
		return o, fmt.Errorf("cachesim: IndexBytes must be 4 or 8, got %d", o.IndexBytes)
	}
	return o, nil
}

const (
	valueBytes = 8
	// fiberPtrOffset separates k_pointer from k_index inside
	// RegionFiber so the two arrays do not alias.
	fiberPtrOffset = int64(1) << 36
	// packWindow separates a factor's packed strip buffer from the
	// factor matrix itself within the same region, so packing traffic
	// is attributed to the factor it serves.
	packWindow = int64(1) << 38
)

// rowBytes returns (offset, size) of columns [r0, r1) of row `row` in a
// factor matrix with the given column stride (in elements).
func rowBytes(row int, stride, r0, r1 int) (int64, int) {
	return int64(row)*int64(stride)*valueBytes + int64(r0)*valueBytes, (r1 - r0) * valueBytes
}

// splattTrees checks that trees holds at least one tree, that every
// non-nil tree is an order-3 SPLATT tree (tensor.CheckSPLATT), and that
// they share one shape, which it returns.
func splattTrees(trees []*nmode.CSF) ([]int, error) {
	var dims []int
	for _, t := range trees {
		if t == nil {
			continue
		}
		if err := tensor.CheckSPLATT(t); err != nil {
			return nil, fmt.Errorf("cachesim: %w", err)
		}
		if dims == nil {
			dims = t.Dims
		} else if !slices.Equal(t.Dims, dims) {
			return nil, fmt.Errorf("cachesim: trees of shapes %v and %v", dims, t.Dims)
		}
	}
	if dims == nil {
		return nil, fmt.Errorf("cachesim: no tree to trace")
	}
	return dims, nil
}

// TraceSPLATT replays Algorithm 1's access stream (with any configured
// pressure points) through h, one tree after another: a single SPLATT
// tree, or the blocks of an MB layout in block order (the MB kernel;
// nil blocks are empty and skipped). Factor matrices use stride ==
// Rank.
func TraceSPLATT(h Toucher, opt Options, trees ...*nmode.CSF) error {
	opt, err := opt.withDefaults()
	if err != nil {
		return err
	}
	if _, err := splattTrees(trees); err != nil {
		return err
	}
	for _, t := range trees {
		if t != nil {
			traceSplatt(h, t, opt)
		}
	}
	return nil
}

func traceSplatt(h Toucher, t *nmode.CSF, opt Options) {
	r := opt.Rank
	ib := opt.IndexBytes
	sliceID, slicePtr, fiberK, fiberPtr, nzJ := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2]
	for s := range sliceID {
		i := int(sliceID[s])
		h.Touch(RegionSlice, int64(s)*int64(ib), ib)
		aOff, aLen := rowBytes(i, r, 0, r)
		for f := int(slicePtr[s]); f < int(slicePtr[s+1]); f++ {
			h.Touch(RegionFiber, int64(f)*int64(ib), ib)                // k_index
			h.Touch(RegionFiber, fiberPtrOffset+int64(f)*int64(ib), ib) // k_pointer
			k := int(fiberK[f])
			if !opt.SkipAccumLoads && !opt.FlopsInner {
				h.Touch(RegionAccum, 0, r*valueBytes) // s <- 0
			}
			for p := int(fiberPtr[f]); p < int(fiberPtr[f+1]); p++ {
				h.Touch(RegionVal, int64(p)*valueBytes, valueBytes)
				h.Touch(RegionJIdx, int64(p)*int64(ib), ib)
				if !opt.SkipB {
					j := int(nzJ[p])
					if opt.BRowZero {
						j = 0
					}
					off, n := rowBytes(j, r, 0, r)
					h.Touch(RegionB, off, n)
				}
				if opt.FlopsInner {
					// Type 5: the fiber epilogue runs per nonzero —
					// C and A are touched for every nonzero.
					if !opt.SkipC {
						off, n := rowBytes(k, r, 0, r)
						h.Touch(RegionC, off, n)
					}
					if !opt.SkipAccumLoads {
						h.Touch(RegionA, aOff, aLen) // load A[i]
					}
					h.Touch(RegionA, aOff, aLen) // store A[i]
					continue
				}
				if !opt.SkipAccumLoads {
					h.Touch(RegionAccum, 0, r*valueBytes) // load s
					h.Touch(RegionAccum, 0, r*valueBytes) // store s
				}
			}
			if opt.FlopsInner {
				continue
			}
			if !opt.SkipC {
				off, n := rowBytes(k, r, 0, r)
				h.Touch(RegionC, off, n)
			}
			if !opt.SkipAccumLoads {
				h.Touch(RegionAccum, 0, r*valueBytes) // read s
				h.Touch(RegionA, aOff, aLen)          // load A[i]
			}
			h.Touch(RegionA, aOff, aLen) // store A[i]
		}
	}
}

// stripLayout carries where a strip's factor data lives during one
// strip of the rank loop: packed buffers (window offset, compact
// stride, column base 0) or the real matrices (stride R, base rr).
type stripLayout struct {
	window  int64 // 0 for the real matrix, packWindow for the packed buffer
	stride  int   // element stride between rows
	colBase int   // first column of the strip within the layout
	width   int   // strip width in columns
}

func (sl stripLayout) touchRow(h Toucher, reg Region, row, r0, r1 int) {
	off, n := rowBytes(row, sl.stride, sl.colBase+r0, sl.colBase+r1)
	h.Touch(reg, sl.window+off, n)
}

// tracePackStrip replays packing columns [rr, rr+w) of an nRows x R
// factor into its compact strip buffer: strided reads of the real
// matrix, sequential writes of the buffer.
func tracePackStrip(h Toucher, reg Region, nRows, stride, rr, w int) {
	for row := 0; row < nRows; row++ {
		off, n := rowBytes(row, stride, rr, rr+w)
		h.Touch(reg, off, n) // read real columns
		pOff, pn := rowBytes(row, w, 0, w)
		h.Touch(reg, packWindow+pOff, pn) // write packed buffer
	}
}

// traceUnpackStrip replays copying the packed output strip back into
// the real output columns.
func traceUnpackStrip(h Toucher, reg Region, nRows, stride, rr, w int) {
	for row := 0; row < nRows; row++ {
		pOff, pn := rowBytes(row, w, 0, w)
		h.Touch(reg, packWindow+pOff, pn) // read packed buffer
		off, n := rowBytes(row, stride, rr, rr+w)
		h.Touch(reg, off, n) // write real columns
	}
}

// traceRankBStrip replays Algorithm 2's register-blocked slice loop for
// one strip. Accumulators are registers: no accumulator traffic, and A
// is loaded+stored per fiber per register block.
func traceRankBStrip(h Toucher, t *nmode.CSF, opt Options, sl stripLayout) {
	ib := opt.IndexBytes
	sliceID, slicePtr, fiberK, fiberPtr, nzJ := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2]
	for s := range sliceID {
		i := int(sliceID[s])
		h.Touch(RegionSlice, int64(s)*int64(ib), ib)
		for f := int(slicePtr[s]); f < int(slicePtr[s+1]); f++ {
			h.Touch(RegionFiber, int64(f)*int64(ib), ib)
			h.Touch(RegionFiber, fiberPtrOffset+int64(f)*int64(ib), ib)
			k := int(fiberK[f])
			for r0 := 0; r0 < sl.width; r0 += kernel.DefaultWidth {
				r1 := min(r0+kernel.DefaultWidth, sl.width)
				for p := int(fiberPtr[f]); p < int(fiberPtr[f+1]); p++ {
					h.Touch(RegionVal, int64(p)*valueBytes, valueBytes)
					h.Touch(RegionJIdx, int64(p)*int64(ib), ib)
					if !opt.SkipB {
						sl.touchRow(h, RegionB, int(nzJ[p]), r0, r1)
					}
				}
				if !opt.SkipC {
					sl.touchRow(h, RegionC, k, r0, r1)
				}
				sl.touchRow(h, RegionA, i, r0, r1) // load A strip
				sl.touchRow(h, RegionA, i, r0, r1) // store A strip
			}
		}
	}
}

// strips enumerates the rank strips for opt, calling body with each
// strip's layout. dims supplies the factor row counts for packing.
func traceStrips(h Toucher, opt Options, dims []int, body func(sl stripLayout)) {
	r := opt.Rank
	bs := opt.RankBlockCols
	if bs <= 0 || bs >= r {
		// Single full-width strip over the real matrices.
		body(stripLayout{window: 0, stride: r, colBase: 0, width: r})
		return
	}
	for rr := 0; rr < r; rr += bs {
		w := bs
		if rr+w > r {
			w = r - rr
		}
		if opt.NoStripPacking {
			// Ablation: strips in place, stride R.
			body(stripLayout{window: 0, stride: r, colBase: rr, width: w})
			continue
		}
		tracePackStrip(h, RegionB, dims[1], r, rr, w)
		tracePackStrip(h, RegionC, dims[2], r, rr, w)
		// Zero the packed output strip (writes).
		for row := 0; row < dims[0]; row++ {
			pOff, pn := rowBytes(row, w, 0, w)
			h.Touch(RegionA, packWindow+pOff, pn)
		}
		body(stripLayout{window: packWindow, stride: w, colBase: 0, width: w})
		traceUnpackStrip(h, RegionA, dims[0], r, rr, w)
	}
}

// TraceRankB replays Algorithm 2's access stream, including the strip
// packing of the factor matrices (Sec. V-B's "stacked strips"
// rearrangement) that the real kernel performs. Over the blocks of an
// MB layout (nil blocks skipped) the strip loop is outermost and each
// strip sweeps every block in block order: MB+RankB, Figure 3b.
func TraceRankB(h Toucher, opt Options, trees ...*nmode.CSF) error {
	opt, err := opt.withDefaults()
	if err != nil {
		return err
	}
	dims, err := splattTrees(trees)
	if err != nil {
		return err
	}
	traceStrips(h, opt, dims, func(sl stripLayout) {
		for _, t := range trees {
			if t != nil {
				traceRankBStrip(h, t, opt, sl)
			}
		}
	})
	return nil
}

// TraceCOO replays the coordinate-format kernel of Sec. III-C1: every
// nonzero loads its value, three indices, one row of B and C, and
// loads+stores its row of A. No fiber accumulator exists.
func TraceCOO(h Toucher, t *nmode.Tensor, opt Options) error {
	if err := tensor.CheckOrder3(t); err != nil {
		return err
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return err
	}
	r := opt.Rank
	ib := opt.IndexBytes
	is, js, ks := t.Idx[0], t.Idx[1], t.Idx[2]
	for p := 0; p < t.NNZ(); p++ {
		h.Touch(RegionVal, int64(p)*valueBytes, valueBytes)
		h.Touch(RegionJIdx, int64(p)*int64(ib)*3, 3*ib) // i,j,k indices
		if !opt.SkipB {
			off, n := rowBytes(int(js[p]), r, 0, r)
			h.Touch(RegionB, off, n)
		}
		if !opt.SkipC {
			off, n := rowBytes(int(ks[p]), r, 0, r)
			h.Touch(RegionC, off, n)
		}
		aOff, aLen := rowBytes(int(is[p]), r, 0, r)
		h.Touch(RegionA, aOff, aLen)
		h.Touch(RegionA, aOff, aLen)
	}
	return nil
}

// MeasureTraffic runs a traced kernel against a fresh hierarchy and
// returns the traffic snapshot. trace is any of the Trace* functions
// partially applied by the caller.
func MeasureTraffic(cfg Config, trace func(*Hierarchy) error) (Traffic, error) {
	h, err := NewHierarchy(cfg)
	if err != nil {
		return Traffic{}, err
	}
	if err := trace(h); err != nil {
		return Traffic{}, err
	}
	return h.Snapshot(), nil
}
