package core

import (
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/tensor"
)

// cooRange is the coordinate-format MTTKRP of Sec. III-C1 over
// nonzeros [lo, hi): for every nonzero (i,j,k,v),
// A[i] += v * (B[j] .* C[k]). It performs the Khatri-Rao product "on
// the fly" per nonzero and is the natural baseline the SPLATT format
// improves upon (the fiber accumulator saves the per-nonzero multiply
// against C).
//
// Parallel execution privatises out per worker (COO nonzero ranges do
// not own disjoint output rows, unlike SPLATT's slice sharing); the
// O(workers · I · R) reduction overhead is one more reason the
// fiber-ordered SPLATT layout wins (Sec. III-C). The privatisation
// lives in Executor.runCOO.
//
//spblock:hotpath
func cooRange(t *tensor.COO, b, c, out *la.Matrix, lo, hi int) {
	r := out.Cols
	for p := lo; p < hi; p++ {
		v := t.Val[p]
		brow := b.Row(int(t.J[p]))
		crow := c.Row(int(t.K[p]))
		orow := out.Row(int(t.I[p]))
		kernel.KRPAxpy(orow[:r], v, brow, crow)
	}
}

// cooKernel runs the coordinate kernel over the whole tensor.
//
//spblock:hotpath
func cooKernel(t *tensor.COO, b, c, out *la.Matrix) {
	cooRange(t, b, c, out, 0, t.NNZ())
}

// addInto accumulates src into dst element-wise (the privatisation
// reduction). Shapes must match.
//
//spblock:hotpath
func addInto(dst, src *la.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		kernel.Add(dst.Row(i), src.Row(i))
	}
}

// splattRange runs Algorithm 1 over slices [lo, hi) of the CSF
// structure, using accum as the per-fiber accumulator array s.
//
// This is a line-for-line transcription of the paper's Algorithm 1:
// the inner loop multiplies each nonzero against a row of B into the
// accumulator; the fiber epilogue scales the accumulator by the row of
// C and adds it into the output row.
//
//spblock:hotpath
func splattRange(t *tensor.CSF, b, c, out *la.Matrix, accum []float64, lo, hi int) {
	r := out.Cols
	for s := lo; s < hi; s++ {
		orow := out.Row(int(t.SliceID[s]))
		for f := t.SlicePtr[s]; f < t.SlicePtr[s+1]; f++ {
			clear(accum)
			for p := t.FiberPtr[f]; p < t.FiberPtr[f+1]; p++ {
				kernel.Axpy(accum[:r], t.Val[p], b.Row(int(t.NzJ[p])))
			}
			kernel.ScaleAdd(orow[:r], accum, c.Row(int(t.FiberK[f])))
		}
	}
}

// rankBRange is Algorithm 2 over slices [lo, hi): the rank is swept in
// strips of bs columns (the outer `while rr < R` loop), and within a
// strip each fiber is processed in kern.Width-wide register blocks
// whose accumulators live entirely in scalar locals — the register
// blocking that removes the accumulator-array loads the PPA identified
// as a bottleneck (Table I, type 3).
//
// kern is the variant the executor resolved once on its cold ensure
// path (kernel.Resolve of the effective strip width); dispatch here is
// a cached function pointer, never an interface or map lookup. The
// resolve contract guarantees every tail is narrower than
// kernel.MaxWidth: tails trail an unrolled body (width < kern.Width),
// or the whole strip is below kernel.MinWidth (scalar variant).
//
//spblock:hotpath
func rankBRange(t *tensor.CSF, b, c, out *la.Matrix, kern *kernel.Strip, bs, lo, hi int) {
	r := out.Cols
	if bs <= 0 || bs > r {
		bs = r
	}
	for rr := 0; rr < r; rr += bs {
		stripEnd := rr + bs
		if stripEnd > r {
			stripEnd = r
		}
		for s := lo; s < hi; s++ {
			orow := out.Row(int(t.SliceID[s]))
			for f := t.SlicePtr[s]; f < t.SlicePtr[s+1]; f++ {
				pLo, pHi := int(t.FiberPtr[f]), int(t.FiberPtr[f+1])
				crow := c.Row(int(t.FiberK[f]))
				r0 := rr
				if kw := kern.Width; kw > 0 {
					for ; r0+kw <= stripEnd; r0 += kw {
						kern.Fiber(t.Val, t.NzJ, b, orow, crow, pLo, pHi, r0)
					}
				}
				if r0 < stripEnd {
					kern.FiberTail(t.Val, t.NzJ, b, orow, crow, pLo, pHi, r0, stripEnd)
				}
			}
		}
	}
}
