// Package memo implements memoized MTTKRP for third-order tensors, the
// storage-for-time trade the paper's related work attributes to the
// HyperTensor extension ("memoization, which trades off storage
// overhead in order to reduce the cost of individual MTTKRP
// operations", Kaya's dimension trees).
//
// The observation for N = 3: the mode-1 and mode-2 products share the
// contraction over mode 3,
//
//	S[(i,j)] = Σ_k x_{ijk} · C[k,:]   (one row per non-empty (i,j) pair)
//
// so one pass over the nonzeros (2·R·nnz flops) plus two passes over
// the P = #distinct (i,j) pairs (2·R·P flops each) replaces two full
// MTTKRPs (≈ 4·R·nnz flops). The cost is storing S: P×R doubles. A
// CP-ALS sweep updates A and B from the same C, so S stays valid for
// both folds; mode 3 runs a plain MTTKRP.
package memo

import (
	"fmt"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// Engine owns the (i,j)-pair structure and the memo buffer.
type Engine struct {
	// pairs is the tensor's CSF tree in mode order (0, 1, 2): its
	// level-1 nodes are the non-empty (i, j) pairs in (i, j) order, and
	// each pair's leaves are its (k, value) entries.
	pairs *nmode.CSF

	// s is the memo buffer (P × rank), reallocated when the rank changes.
	s *la.Matrix
}

// NewEngine builds the pair structure from the third-order tensor t.
// The input is unchanged.
func NewEngine(t *nmode.Tensor) (*Engine, error) {
	if err := tensor.CheckOrder3(t); err != nil {
		return nil, err
	}
	c, err := nmode.Build(t, []int{0, 1, 2})
	if err != nil {
		return nil, err
	}
	return &Engine{pairs: c}, nil
}

// NumPairs returns P, the number of distinct (i, j) pairs.
func (e *Engine) NumPairs() int { return e.pairs.NumNodes(1) }

// MemoBytes returns the memo buffer size for a given rank — the
// storage overhead of the method.
func (e *Engine) MemoBytes(rank int) int64 {
	return int64(e.NumPairs()) * int64(rank) * 8
}

// ComputeS contracts the tensor with the mode-3 factor C into the memo
// buffer: S[p,:] = Σ_{k in pair p} val · C[k,:].
func (e *Engine) ComputeS(c *la.Matrix) error {
	if c.Rows != e.pairs.Dims[2] {
		return fmt.Errorf("memo: C has %d rows, want %d", c.Rows, e.pairs.Dims[2])
	}
	r := c.Cols
	if r == 0 {
		return fmt.Errorf("memo: rank must be positive")
	}
	// Reuse the memo buffer by capacity, not by exact shape: a CP-ALS
	// driver that lowers the rank on a long-lived engine (the common
	// case once engines are cached and shared across jobs) must not keep
	// the larger stale matrix header around forever, nor pay a fresh
	// P×r allocation for a buffer that already fits. Retention is
	// bounded by the high-water rank.
	need := e.NumPairs() * r
	if e.s == nil || cap(e.s.Data) < need {
		e.s = la.NewMatrix(e.NumPairs(), r)
	} else {
		e.s.Rows, e.s.Cols, e.s.Stride = e.NumPairs(), r, r
		e.s.Data = e.s.Data[:need]
		e.s.Zero()
	}
	leafPtr, leafK, leafVal := e.pairs.Ptr[1], e.pairs.ID[2], e.pairs.Val
	for p := 0; p < e.NumPairs(); p++ {
		row := e.s.Row(p)
		for q := leafPtr[p]; q < leafPtr[p+1]; q++ {
			v := leafVal[q]
			crow := c.Row(int(leafK[q]))
			for x := range row {
				row[x] += v * crow[x]
			}
		}
	}
	return nil
}

// FoldMode1 computes the mode-1 MTTKRP from the memo buffer:
// out[i,:] += S[p,:] ∘ B[j_p,:] for every pair p = (i, j_p).
// ComputeS must have run with the current C. out is zeroed first.
func (e *Engine) FoldMode1(b, out *la.Matrix) error {
	if err := e.checkFold(b, out, e.pairs.Dims[1], e.pairs.Dims[0]); err != nil {
		return err
	}
	out.Zero()
	sliceI, slicePtr, pairJ := e.pairs.ID[0], e.pairs.Ptr[0], e.pairs.ID[1]
	for s, i := range sliceI {
		orow := out.Row(int(i))
		for p := slicePtr[s]; p < slicePtr[s+1]; p++ {
			srow := e.s.Row(int(p))
			brow := b.Row(int(pairJ[p]))
			for x := range srow {
				orow[x] += srow[x] * brow[x]
			}
		}
	}
	return nil
}

// FoldMode2 computes the mode-2 MTTKRP from the memo buffer:
// out[j,:] += S[p,:] ∘ A[i_p,:]. ComputeS must have run with the
// current C. out is zeroed first.
func (e *Engine) FoldMode2(a, out *la.Matrix) error {
	if err := e.checkFold(a, out, e.pairs.Dims[0], e.pairs.Dims[1]); err != nil {
		return err
	}
	out.Zero()
	sliceI, slicePtr, pairJ := e.pairs.ID[0], e.pairs.Ptr[0], e.pairs.ID[1]
	for s, i := range sliceI {
		arow := a.Row(int(i))
		for p := slicePtr[s]; p < slicePtr[s+1]; p++ {
			srow := e.s.Row(int(p))
			orow := out.Row(int(pairJ[p]))
			for x := range srow {
				orow[x] += srow[x] * arow[x]
			}
		}
	}
	return nil
}

func (e *Engine) checkFold(f, out *la.Matrix, fRows, outRows int) error {
	if e.s == nil {
		return fmt.Errorf("memo: ComputeS has not run")
	}
	if f.Cols != e.s.Cols || out.Cols != e.s.Cols {
		return fmt.Errorf("memo: rank mismatch (%d, %d vs memo %d)", f.Cols, out.Cols, e.s.Cols)
	}
	if f.Rows != fRows {
		return fmt.Errorf("memo: factor has %d rows, want %d", f.Rows, fRows)
	}
	if out.Rows != outRows {
		return fmt.Errorf("memo: out has %d rows, want %d", out.Rows, outRows)
	}
	return nil
}

// FlopsPlain returns the flop count of computing modes 1 and 2 with two
// plain SPLATT MTTKRPs (Equation 2, counting the dominant nnz term and
// the fiber term F of each orientation as equal to nnz for simplicity
// of comparison: 2 · 2·R·nnz).
func (e *Engine) FlopsPlain(rank, nnz int) int64 {
	return 2 * 2 * int64(rank) * int64(nnz)
}

// FlopsMemoized returns the flop count of ComputeS + two folds:
// 2·R·nnz + 2 · 2·R·P.
func (e *Engine) FlopsMemoized(rank, nnz int) int64 {
	return 2*int64(rank)*int64(nnz) + 2*2*int64(rank)*int64(e.NumPairs())
}
