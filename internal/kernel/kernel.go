// Package kernel owns the register-blocked fiber kernel of the MTTKRP
// tree walk (internal/nmode), in memory and out of core: the innermost
// body of the paper's Algorithm 2 (Sec. V-B),
// where a fiber's nonzeros are swept with all column accumulators held
// in scalar locals (registers) and the fiber ends with one fused
// dst += acc ⊙ scale.
//
// The package exposes width-specialized unrolled bodies (8-, 16-, 24-
// and 32-wide, emitted by the gen/ generator into widths_gen.go) plus
// a scalar tail, bundled per width into a Strip. Callers resolve a
// Strip exactly once on their cold ensure path (Resolve) and dispatch
// through the cached function pointers on the hot path — no interface
// boxing, no map lookup, no per-call branching beyond the strip loop
// itself. The contract deliberately takes raw slices (vals, ids, and
// the dst and scale rows) rather than a tensor type: dst is an output
// row or a mid-level accumulator of the walk. The package also holds
// the whole-rank helpers of Algorithm 1 (Axpy, ScaleAdd), the COO
// kernel (KRPAxpy), the walk's runs of one-nonzero fibers
// (KRPAxpyRun), and the privatised-output reduction (Add).
package kernel

import (
	"slices"

	"spblock/internal/la"
)

//go:generate go run ./gen -out widths_gen.go

const (
	// MinWidth is the narrowest unrolled body; widths below it run
	// entirely in the scalar tail.
	MinWidth = 8
	// DefaultWidth is the paper's cache-line register block: 16 float64
	// columns = 128 bytes (Sec. V-B). Strips wider than any registered
	// width step at DefaultWidth.
	DefaultWidth = 16
	// MaxWidth bounds both the widest unrolled body and the scalar
	// tail's stack accumulator (a tail is always narrower than the
	// unrolled width it trails).
	MaxWidth = 32
)

// FiberKernel processes one CSF fiber for Width consecutive columns
// starting at r0, fusing Algorithm 2's fiber epilogue:
//
//	dst[r0:r0+Width] += (Σ_p vals[p]·b[ids[p]][r0:r0+Width]) ⊙ scale[r0:r0+Width]
//
// over p in [pLo, pHi). vals/ids are the fiber's nonzero values and
// leaf-mode coordinates; dst is the row the fiber's parent accumulates
// into (an output row, or a walker's accumulator) and scale is the
// fiber's own factor row. Above order 2 the walker calls it only for
// fibers of two or more nonzeros; one-nonzero fibers go through
// KRPAxpyRun instead, bit-identical because dst is never −0
// (nmode.Walker.Walk).
type FiberKernel func(vals []float64, ids []int32, b *la.Matrix, dst, scale []float64, pLo, pHi, r0 int)

// FiberTailKernel is FiberKernel for a partial block spanning columns
// [r0, r1) with r1-r0 < MaxWidth.
type FiberTailKernel func(vals []float64, ids []int32, b *la.Matrix, dst, scale []float64, pLo, pHi, r0, r1 int)

// Variant identifies a registered kernel implementation.
type Variant struct {
	// Width is the unrolled register-block width in columns; 0 means
	// the scalar variant (everything runs in the tail bodies).
	Width int
	// Name is the stable identifier recorded in metrics and the
	// mttkrp-bench kernel column: "w8", "w16", "w24", "w32" or "scalar".
	Name string
}

// Strip bundles the function pointers a resolved strip width dispatches
// through: the unrolled fiber body plus the tail that finishes columns
// the unrolled width does not cover. Width 0 (scalar) leaves Fiber nil;
// callers must gate the unrolled step on Width > 0.
type Strip struct {
	Variant
	Fiber     FiberKernel
	FiberTail FiberTailKernel
}

// scalarStrip serves widths below MinWidth entirely from the tail.
var scalarStrip = Strip{
	Variant:   Variant{Width: 0, Name: "scalar"},
	FiberTail: ScalarFiberTail,
}

// Widths returns the registered unrolled widths in ascending order.
func Widths() []int {
	ws := make([]int, 0, len(specialized))
	for _, s := range specialized {
		ws = append(ws, s.Width)
	}
	slices.Sort(ws)
	return ws
}

// Resolve maps a strip width (in columns) to the kernel variant that
// executes it: an exact-width unrolled body when one is registered,
// otherwise the widest registered body not exceeding
// min(width, DefaultWidth) — so irregular wide strips step at the
// paper's cache-line width and leave the remainder to the tail — and
// the scalar variant when the width is below MinWidth. Called once per
// rank change on the ensure path; the result is cached by the caller.
//
//spblock:coldpath
func Resolve(width int) Strip {
	if width < MinWidth {
		return scalarStrip
	}
	best := scalarStrip
	for _, s := range specialized {
		if s.Width == width {
			return s
		}
		if s.Width <= min(width, DefaultWidth) && s.Width > best.Width {
			best = s
		}
	}
	return best
}

// StripCandidates returns the RankBlockCols values worth measuring for
// a tensor of the given rank: every multiple of MinWidth up to the
// rank (each decomposes into registered unrolled widths with at most a
// sub-MinWidth scalar tail) plus the rank itself — the unblocked
// "whole rank as one strip" endpoint the Sec. V-C ladder must also
// evaluate (a bs == rank strip is not the same plan as bs == 0 only
// in name; both searches treat 0 separately). Ascending, deduplicated;
// a rank below MinWidth yields just {rank}.
//
//spblock:coldpath
func StripCandidates(rank int) []int {
	if rank <= 0 {
		return nil
	}
	if rank < MinWidth {
		return []int{rank}
	}
	cands := make([]int, 0, rank/MinWidth+1)
	for bs := MinWidth; bs < rank; bs += MinWidth {
		cands = append(cands, bs)
	}
	return append(cands, rank)
}

// ScalarFiberTail finishes one fiber for columns [r0, r1) with
// r1-r0 < MaxWidth, using a small stack accumulator. It is the tail of
// every fiber variant and the whole body of the scalar variant.
//
//spblock:hotpath
func ScalarFiberTail(vals []float64, ids []int32, b *la.Matrix, dst, scale []float64, pLo, pHi, r0, r1 int) {
	var acc [MaxWidth]float64
	w := r1 - r0
	for p := pLo; p < pHi; p++ {
		v := vals[p]
		brow := b.Data[int(ids[p])*b.Stride+r0:]
		for q := 0; q < w; q++ {
			acc[q] += v * brow[q]
		}
	}
	srow := scale[r0:r1]
	drow := dst[r0:r1]
	for q := 0; q < w; q++ {
		drow[q] += acc[q] * srow[q]
	}
}

// Axpy accumulates acc[q] += v * row[q] over len(acc) columns — the
// whole-rank fiber accumulate of Algorithm 1's inner loop. Small
// enough to inline across packages.
//
//spblock:hotpath
func Axpy(acc []float64, v float64, row []float64) {
	for q, x := range row[:len(acc)] {
		acc[q] += v * x
	}
}

// ScaleAdd accumulates out[q] += acc[q] * scale[q] over len(out)
// columns — the fiber epilogue (Algorithm 1) and the N-mode mid-level
// combine.
//
//spblock:hotpath
func ScaleAdd(out, acc, scale []float64) {
	for q, a := range acc[:len(out)] {
		out[q] += a * scale[q]
	}
}

// KRPAxpy accumulates out[q] += (v * brow[q]) * crow[q] over len(out)
// columns — the on-the-fly Khatri-Rao product of the COO baseline
// (Sec. III-C1), and the register walk's lone one-nonzero fiber
// (KRPAxpyRun), whose sum v·b is scaled by its fiber row crow. A
// caller that passes crow cut to len(out) gets the loop without a
// bounds check once inlined.
//
//spblock:hotpath
func KRPAxpy(out []float64, v float64, brow, crow []float64) {
	for q, bq := range brow[:len(out)] {
		out[q] += v * bq * crow[q]
	}
}

// KRPAxpyRun adds a run of one-nonzero fibers under one destination
// row: fiber i, in order, adds dst[q] += (vals[i]·b[ids[i]][q])·s[sids[i]][q]
// over len(dst) columns. Four fibers share one pass over dst, keeping
// dst[q] in a register across their adds (krpAxpy4), then a pair does,
// and a lone fiber goes through KRPAxpy; so dst is loaded and stored
// once per group instead of once per fiber. Each element sees exactly
// the adds of len(vals) successive KRPAxpy calls, in the same order, so
// the result is bit-identical to them. ids and sids hold at least
// len(vals) entries; every row of b and s is at least len(dst) long.
//
//spblock:hotpath
func KRPAxpyRun(dst, vals []float64, ids []int32, b *la.Matrix, sids []int32, s *la.Matrix) {
	n := len(dst)
	bd, bs, sd, ss := b.Data, b.Stride, s.Data, s.Stride
	ids, sids = ids[:len(vals)], sids[:len(vals)]
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		krpAxpy4(dst, vals[i], vals[i+1], vals[i+2], vals[i+3],
			bd[int(ids[i])*bs:][:n], bd[int(ids[i+1])*bs:][:n],
			bd[int(ids[i+2])*bs:][:n], bd[int(ids[i+3])*bs:][:n],
			sd[int(sids[i])*ss:][:n], sd[int(sids[i+1])*ss:][:n],
			sd[int(sids[i+2])*ss:][:n], sd[int(sids[i+3])*ss:][:n])
	}
	if i+2 <= len(vals) {
		krpAxpy2(dst, vals[i], vals[i+1],
			bd[int(ids[i])*bs:][:n], bd[int(ids[i+1])*bs:][:n],
			sd[int(sids[i])*ss:][:n], sd[int(sids[i+1])*ss:][:n])
		i += 2
	}
	if i < len(vals) {
		KRPAxpy(dst, vals[i], bd[int(ids[i])*bs:][:n], sd[int(sids[i])*ss:][:n])
	}
}

// krpAxpy4 is four KRPAxpy calls in one pass over dst. It stays out of
// line so that its loop has the registers to itself: inlined into the
// run loop, the counter and two row pointers spill.
//
//go:noinline
//spblock:hotpath
func krpAxpy4(dst []float64, v0, v1, v2, v3 float64, b0, b1, b2, b3, s0, s1, s2, s3 []float64) {
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	s0, s1, s2, s3 = s0[:len(dst)], s1[:len(dst)], s2[:len(dst)], s3[:len(dst)]
	for q, x := range dst {
		x += v0 * b0[q] * s0[q]
		x += v1 * b1[q] * s1[q]
		x += v2 * b2[q] * s2[q]
		x += v3 * b3[q] * s3[q]
		dst[q] = x
	}
}

// krpAxpy2 is two KRPAxpy calls in one pass over dst.
//
//spblock:hotpath
func krpAxpy2(dst []float64, v0, v1 float64, b0, b1, s0, s1 []float64) {
	b0, b1, s0, s1 = b0[:len(dst)], b1[:len(dst)], s0[:len(dst)], s1[:len(dst)]
	for q, x := range dst {
		x += v0 * b0[q] * s0[q]
		x += v1 * b1[q] * s1[q]
		dst[q] = x
	}
}

// Add accumulates dst[q] += src[q] over len(dst) columns — the
// privatisation reduction.
//
//spblock:hotpath
func Add(dst, src []float64) {
	for q, s := range src[:len(dst)] {
		dst[q] += s
	}
}
