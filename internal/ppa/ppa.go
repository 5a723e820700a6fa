// Package ppa implements the pressure point analysis of Sec. IV-B:
// six variants of the SPLATT MTTKRP kernel, each with one resource
// artificially removed or redirected, used to attribute execution time
// to specific micro-architectural resources (Table I).
//
// The variants intentionally change the kernel's semantics — their
// outputs are meaningless; what matters is the execution time delta
// against the unchanged kernel. A checksum sink defeats dead-code
// elimination so the measured loops really execute.
package ppa

import (
	"fmt"
	"time"

	"spblock/internal/cachesim"
	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Variant identifies one pressure point of Table I.
type Variant int

const (
	// Type1NoB removes all accesses to the mode-2 factor B.
	Type1NoB Variant = 1
	// Type2BInL1 redirects every access to B to its first row, so B is
	// served from L1.
	Type2BInL1 Variant = 2
	// Type3NoAccumLoads eliminates the load instructions on the
	// accumulator array by keeping partial sums in registers.
	Type3NoAccumLoads Variant = 3
	// Type4NoC removes all accesses to the mode-3 factor C.
	Type4NoC Variant = 4
	// Type5FlopsInner moves the per-fiber floating-point operations
	// into the per-nonzero inner loop, emulating the COO kernel.
	Type5FlopsInner Variant = 5
	// Type6Unchanged is the baseline SPLATT kernel.
	Type6Unchanged Variant = 6
)

// Variants lists all pressure points in Table I order.
func Variants() []Variant {
	return []Variant{Type1NoB, Type2BInL1, Type3NoAccumLoads, Type4NoC, Type5FlopsInner, Type6Unchanged}
}

// Description returns the Table I description of the variant.
func (v Variant) Description() string {
	switch v {
	case Type1NoB:
		return "Access to B removed"
	case Type2BInL1:
		return "All accesses to B limited to L1"
	case Type3NoAccumLoads:
		return "Eliminating load instructions"
	case Type4NoC:
		return "Access to C removed"
	case Type5FlopsInner:
		return "Moving flops to the inner-loop"
	case Type6Unchanged:
		return "Unchanged"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// TraceOptions maps a variant onto the cache-simulator pressure-point
// options, so the same experiment can be replayed for traffic.
func (v Variant) TraceOptions(rank int) cachesim.Options {
	opt := cachesim.Options{Rank: rank}
	switch v {
	case Type1NoB:
		opt.SkipB = true
	case Type2BInL1:
		opt.BRowZero = true
	case Type3NoAccumLoads:
		opt.SkipAccumLoads = true
	case Type4NoC:
		opt.SkipC = true
	case Type5FlopsInner:
		opt.FlopsInner = true
	}
	return opt
}

// Run executes the variant kernel once over the SPLATT tree t (built by
// nmode.Build in tensor.SPLATTModeOrder) at the rank implied by
// out.Cols, accumulating into out (whose contents are meaningful only
// for Type6Unchanged), and
// returns a checksum that the caller should consume to keep the
// compiler honest.
func Run(v Variant, t *nmode.CSF, b, c, out *la.Matrix, accum []float64) float64 {
	switch v {
	case Type1NoB:
		return runNoB(t, c, out, accum)
	case Type2BInL1:
		return runBInL1(t, b, c, out, accum)
	case Type3NoAccumLoads:
		return runNoAccumLoads(t, b, c, out)
	case Type4NoC:
		return runNoC(t, b, out, accum)
	case Type5FlopsInner:
		return runFlopsInner(t, b, c, out)
	case Type6Unchanged:
		return runBaseline(t, b, c, out, accum)
	default:
		panic(fmt.Sprintf("ppa: unknown variant %d", int(v)))
	}
}

func runBaseline(t *nmode.CSF, b, c, out *la.Matrix, accum []float64) float64 {
	r := out.Cols
	sliceID, slicePtr, fiberK, fiberPtr, nzJ, val := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2], t.Val
	for s := range sliceID {
		orow := out.Row(int(sliceID[s]))
		for f := slicePtr[s]; f < slicePtr[s+1]; f++ {
			clear(accum)
			for p := fiberPtr[f]; p < fiberPtr[f+1]; p++ {
				v := val[p]
				brow := b.Row(int(nzJ[p]))
				for q := 0; q < r; q++ {
					accum[q] += v * brow[q]
				}
			}
			crow := c.Row(int(fiberK[f]))
			for q := 0; q < r; q++ {
				orow[q] += accum[q] * crow[q]
			}
		}
	}
	return out.Data[0]
}

// runNoB replaces the B row read with the nonzero value itself: the
// inner loop's loads of B disappear while the flop count stays.
func runNoB(t *nmode.CSF, c, out *la.Matrix, accum []float64) float64 {
	r := out.Cols
	sliceID, slicePtr, fiberK, fiberPtr, val := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.Val
	for s := range sliceID {
		orow := out.Row(int(sliceID[s]))
		for f := slicePtr[s]; f < slicePtr[s+1]; f++ {
			clear(accum)
			for p := fiberPtr[f]; p < fiberPtr[f+1]; p++ {
				v := val[p]
				for q := 0; q < r; q++ {
					accum[q] += v * v
				}
			}
			crow := c.Row(int(fiberK[f]))
			for q := 0; q < r; q++ {
				orow[q] += accum[q] * crow[q]
			}
		}
	}
	return out.Data[0]
}

func runBInL1(t *nmode.CSF, b, c, out *la.Matrix, accum []float64) float64 {
	r := out.Cols
	brow0 := b.Row(0)
	sliceID, slicePtr, fiberK, fiberPtr, nzJ, val := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2], t.Val
	for s := range sliceID {
		orow := out.Row(int(sliceID[s]))
		for f := slicePtr[s]; f < slicePtr[s+1]; f++ {
			clear(accum)
			for p := fiberPtr[f]; p < fiberPtr[f+1]; p++ {
				v := val[p]
				// The j index is still loaded (the instruction stream is
				// unchanged); only the row it selects is redirected.
				_ = nzJ[p]
				for q := 0; q < r; q++ {
					accum[q] += v * brow0[q]
				}
			}
			crow := c.Row(int(fiberK[f]))
			for q := 0; q < r; q++ {
				orow[q] += accum[q] * crow[q]
			}
		}
	}
	return out.Data[0]
}

// runNoAccumLoads keeps partial sums in 16-wide register blocks,
// removing the accumulator array's load/store traffic and the loads of
// A in the epilogue (lines 7 and 9 of Algorithm 1).
func runNoAccumLoads(t *nmode.CSF, b, c, out *la.Matrix) float64 {
	r := out.Cols
	sliceID, slicePtr, fiberK, fiberPtr, nzJ := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2]
	for s := range sliceID {
		i := int(sliceID[s])
		for f := slicePtr[s]; f < slicePtr[s+1]; f++ {
			pLo, pHi := int(fiberPtr[f]), int(fiberPtr[f+1])
			k := int(fiberK[f])
			r0 := 0
			for ; r0+16 <= r; r0 += 16 {
				registerBlock16(t.Val, nzJ, b, c, out, pLo, pHi, i, k, r0)
			}
			if r0 < r {
				registerBlockTail(t.Val, nzJ, b, c, out, pLo, pHi, i, k, r0, r)
			}
		}
	}
	return out.Data[0]
}

func registerBlock16(val []float64, nzJ []nmode.Index, b, c, out *la.Matrix, pLo, pHi, i, k, r0 int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	var a8, a9, a10, a11, a12, a13, a14, a15 float64
	bd, bs := b.Data, b.Stride
	for p := pLo; p < pHi; p++ {
		v := val[p]
		brow := bd[int(nzJ[p])*bs+r0:]
		brow = brow[:16:16]
		a0 += v * brow[0]
		a1 += v * brow[1]
		a2 += v * brow[2]
		a3 += v * brow[3]
		a4 += v * brow[4]
		a5 += v * brow[5]
		a6 += v * brow[6]
		a7 += v * brow[7]
		a8 += v * brow[8]
		a9 += v * brow[9]
		a10 += v * brow[10]
		a11 += v * brow[11]
		a12 += v * brow[12]
		a13 += v * brow[13]
		a14 += v * brow[14]
		a15 += v * brow[15]
	}
	crow := c.Data[k*c.Stride+r0:]
	crow = crow[:16:16]
	orow := out.Data[i*out.Stride+r0:]
	orow = orow[:16:16]
	// Stores only: the A loads of line 9 are what this pressure point
	// eliminates.
	orow[0] = a0 * crow[0]
	orow[1] = a1 * crow[1]
	orow[2] = a2 * crow[2]
	orow[3] = a3 * crow[3]
	orow[4] = a4 * crow[4]
	orow[5] = a5 * crow[5]
	orow[6] = a6 * crow[6]
	orow[7] = a7 * crow[7]
	orow[8] = a8 * crow[8]
	orow[9] = a9 * crow[9]
	orow[10] = a10 * crow[10]
	orow[11] = a11 * crow[11]
	orow[12] = a12 * crow[12]
	orow[13] = a13 * crow[13]
	orow[14] = a14 * crow[14]
	orow[15] = a15 * crow[15]
}

func registerBlockTail(val []float64, nzJ []nmode.Index, b, c, out *la.Matrix, pLo, pHi, i, k, r0, r1 int) {
	var acc [16]float64
	w := r1 - r0
	for p := pLo; p < pHi; p++ {
		v := val[p]
		brow := b.Data[int(nzJ[p])*b.Stride+r0:]
		for q := 0; q < w; q++ {
			acc[q] += v * brow[q]
		}
	}
	crow := c.Data[k*c.Stride+r0:]
	orow := out.Data[i*out.Stride+r0:]
	for q := 0; q < w; q++ {
		orow[q] = acc[q] * crow[q]
	}
}

func runNoC(t *nmode.CSF, b, out *la.Matrix, accum []float64) float64 {
	r := out.Cols
	sliceID, slicePtr, fiberK, fiberPtr, nzJ, val := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2], t.Val
	for s := range sliceID {
		orow := out.Row(int(sliceID[s]))
		for f := slicePtr[s]; f < slicePtr[s+1]; f++ {
			clear(accum)
			for p := fiberPtr[f]; p < fiberPtr[f+1]; p++ {
				v := val[p]
				brow := b.Row(int(nzJ[p]))
				for q := 0; q < r; q++ {
					accum[q] += v * brow[q]
				}
			}
			kv := float64(fiberK[f]) // stands in for the C row without touching C
			for q := 0; q < r; q++ {
				orow[q] += accum[q] * kv
			}
		}
	}
	return out.Data[0]
}

// runFlopsInner is the COO emulation: the fiber epilogue's multiply by
// C and accumulate into A happens per nonzero, increasing flops but
// not (much) data movement.
func runFlopsInner(t *nmode.CSF, b, c, out *la.Matrix) float64 {
	r := out.Cols
	sliceID, slicePtr, fiberK, fiberPtr, nzJ, val := t.ID[0], t.Ptr[0], t.ID[1], t.Ptr[1], t.ID[2], t.Val
	for s := range sliceID {
		orow := out.Row(int(sliceID[s]))
		for f := slicePtr[s]; f < slicePtr[s+1]; f++ {
			crow := c.Row(int(fiberK[f]))
			for p := fiberPtr[f]; p < fiberPtr[f+1]; p++ {
				v := val[p]
				brow := b.Row(int(nzJ[p]))
				for q := 0; q < r; q++ {
					orow[q] += v * brow[q] * crow[q]
				}
			}
		}
	}
	return out.Data[0]
}

// Result is one measured pressure point.
type Result struct {
	Variant  Variant
	Seconds  float64
	Relative float64 // Seconds / baseline Seconds
	Checksum float64
}

// Measure times every variant over reps repetitions (keeping the
// minimum) on a single goroutine, as the paper measured on a single
// core, and returns results in Table I order with Relative filled in.
// t must be a SPLATT tree (tensor.CheckSPLATT).
func Measure(t *nmode.CSF, b, c *la.Matrix, rank, reps int) ([]Result, error) {
	if err := tensor.CheckSPLATT(t); err != nil {
		return nil, fmt.Errorf("ppa: %w", err)
	}
	if rank <= 0 || rank != b.Cols || rank != c.Cols {
		return nil, fmt.Errorf("ppa: rank %d inconsistent with factors (%d, %d)", rank, b.Cols, c.Cols)
	}
	if b.Rows != t.Dims[1] || c.Rows != t.Dims[2] {
		return nil, fmt.Errorf("ppa: factor shapes do not match tensor %v", t.Dims)
	}
	if reps <= 0 {
		reps = 3
	}
	out := la.NewMatrix(t.Dims[0], rank)
	accum := make([]float64, rank)
	var results []Result
	var sink float64
	for _, v := range Variants() {
		best := 0.0
		for rep := 0; rep < reps; rep++ {
			out.Zero()
			start := time.Now()
			sink += Run(v, t, b, c, out, accum)
			sec := time.Since(start).Seconds()
			if rep == 0 || sec < best {
				best = sec
			}
		}
		results = append(results, Result{Variant: v, Seconds: best, Checksum: sink})
	}
	baseline := results[len(results)-1].Seconds // Type6Unchanged is last
	for i := range results {
		if baseline > 0 {
			results[i].Relative = results[i].Seconds / baseline
		}
	}
	return results, nil
}
