// Package partition implements the data distribution machinery of the
// distributed experiments: the greedy nnz-balancing slice chunker of
// the medium-grained decomposition (Sec. VI-D, after Smith & Karypis),
// processor-grid factorisation for 3D grids, and the 4D rank-partitioned
// grid of the paper's contribution.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"spblock/internal/nmode"
)

// Chunk partitions indices [0, n) (n = len(weights)) into at most
// `parts` contiguous ranges using the paper's greedy rule: "adding
// slices to a block until it has at least nnz/parts nonzeros". It
// returns parts+1 boundaries (some trailing ranges may be empty when
// the weights are very skewed).
func Chunk(weights []int64, parts int) ([]int, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("partition: parts must be positive, got %d", parts)
	}
	n := len(weights)
	var total int64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("partition: negative weight")
		}
		total += w
	}
	bounds := make([]int, parts+1)
	remaining := total
	idx := 0
	for part := 0; part < parts-1; part++ {
		// Rebalance the target against what is actually left, so one
		// heavy early slice does not starve every later part.
		target := remaining / int64(parts-part)
		var acc int64
		for idx < n && acc < target {
			acc += weights[idx]
			idx++
		}
		bounds[part+1] = idx
		remaining -= acc
	}
	bounds[parts] = n
	return bounds, nil
}

// SliceWeights counts nonzeros per index of the given mode.
func SliceWeights(t *nmode.Tensor, mode int) ([]int64, error) {
	if mode < 0 || mode >= t.Order() {
		return nil, fmt.Errorf("partition: mode %d out of range", mode)
	}
	w := make([]int64, t.Dims[mode])
	for _, c := range t.Idx[mode] {
		w[c]++
	}
	return w, nil
}

// Grid3 factorises p into a q×r×s processor grid proportional to the
// mode lengths: the medium-grained decomposition's communication volume
// is Σ_m dims[m]/g[m]·R words per rank, which is minimised when g is
// proportional to the mode lengths (subject to q·r·s = p and
// g[m] <= dims[m]).
func Grid3(p int, dims []int) ([3]int, error) {
	if p <= 0 {
		return [3]int{}, fmt.Errorf("partition: p must be positive, got %d", p)
	}
	if len(dims) != 3 || slices.Min(dims) <= 0 {
		return [3]int{}, fmt.Errorf("partition: invalid dims %v", dims)
	}
	best := [3]int{}
	bestCost := -1.0
	for _, g := range factorTriples(p) {
		// Try all assignments of the triple to the three modes.
		perms := [][3]int{
			{g[0], g[1], g[2]}, {g[0], g[2], g[1]},
			{g[1], g[0], g[2]}, {g[1], g[2], g[0]},
			{g[2], g[0], g[1]}, {g[2], g[1], g[0]},
		}
		for _, cand := range perms {
			if cand[0] > dims[0] || cand[1] > dims[1] || cand[2] > dims[2] {
				continue
			}
			cost := float64(dims[0])/float64(cand[0]) +
				float64(dims[1])/float64(cand[1]) +
				float64(dims[2])/float64(cand[2])
			if bestCost < 0 || cost < bestCost {
				best, bestCost = cand, cost
			}
		}
	}
	if bestCost < 0 {
		return [3]int{}, fmt.Errorf("partition: no valid 3D grid for p=%d and dims %v", p, dims)
	}
	return best, nil
}

// factorTriples enumerates unordered triples (a, b, c) with a·b·c = p.
func factorTriples(p int) [][3]int {
	var out [][3]int
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		pa := p / a
		for b := a; b*b <= pa; b++ {
			if pa%b != 0 {
				continue
			}
			out = append(out, [3]int{a, b, pa / b})
		}
	}
	return out
}

// Divisors returns the positive divisors of p in increasing order.
func Divisors(p int) []int {
	var d []int
	for i := 1; i*i <= p; i++ {
		if p%i == 0 {
			d = append(d, i)
			if i != p/i {
				d = append(d, p/i)
			}
		}
	}
	sort.Ints(d)
	return d
}

// Grid4 describes the paper's 4D partitioning: t rank-groups, each an
// inner q'×r'×s' grid over a full tensor replica working on R/t factor
// columns.
type Grid4 struct {
	Inner     [3]int
	RankParts int
}

func (g Grid4) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", g.Inner[0], g.Inner[1], g.Inner[2], g.RankParts)
}

// NewGrid4 builds the 4D grid for p processors with t rank parts:
// p must be divisible by t, and the rank R must split into t
// register-width-friendly parts.
func NewGrid4(p, t, rank int, dims []int) (Grid4, error) {
	if t <= 0 || p%t != 0 {
		return Grid4{}, fmt.Errorf("partition: rank parts %d must divide p=%d", t, p)
	}
	if rank%t != 0 {
		return Grid4{}, fmt.Errorf("partition: rank %d not divisible by %d rank parts", rank, t)
	}
	inner, err := Grid3(p/t, dims)
	if err != nil {
		return Grid4{}, err
	}
	return Grid4{Inner: inner, RankParts: t}, nil
}

// RankStrips splits R columns into t equal strips, returning boundaries.
func RankStrips(rank, t int) ([]int, error) {
	if t <= 0 || rank%t != 0 {
		return nil, fmt.Errorf("partition: cannot split rank %d into %d strips", rank, t)
	}
	bounds := make([]int, t+1)
	for i := 0; i <= t; i++ {
		bounds[i] = i * (rank / t)
	}
	return bounds, nil
}
