// Package check is the spblockcheck deep structure oracle: build-tag
// gated validators for the CSF-tree, blocked-layout and strip-packing
// invariants that the kernels assume but never re-verify on the hot
// path.
//
// The validators themselves are ordinary exported functions, always
// compiled, so fuzz targets and tests can call them under any build
// configuration. Production call sites (executor construction, the
// amortised ensure paths) guard calls with the Enabled constant:
//
//	if check.Enabled {
//		check.Must("nmode.NewExecutor", validateTree(csf))
//	}
//
// Enabled is a constant — false without the spblockcheck build tag — so
// the branch and everything behind it is dead-code eliminated from
// normal and benchmark builds; `go test -tags spblockcheck ./...` and
// fuzzing runs get the deep oracle.
//
// The package deliberately depends on nothing else in the module (the
// tensor package imports nmode, so a tensor dependency here would cut
// nmode off from the oracle). Both the order-3 SPLATT structure and
// the order-N CSF are level arrays of ids and child pointers; callers
// pass those arrays directly and keep any struct-specific adaptation
// (block coordinate decoding, coverage sums) in thin coldpath wrappers
// next to the structs.
//
// Invariants verified (Sec. III-C / V-A of the paper):
//
//   - CSF trees: pointer arrays are monotone, start at 0 and span the
//     next level exactly; ids are within the mode dimension; sibling
//     ids are sorted (strictly below the leaf level — only duplicate
//     coordinates may repeat a leaf id); no node is childless (builders
//     compress empty slices and fibers); leaf count equals the value
//     count.
//   - Blocked layouts: every block's ids stay inside the block's
//     axis-aligned coordinate box (IDBox), and the caller confirms
//     block nonzero counts sum to the tensor total (exact coverage).
//   - Rank strips: the strip ladder covers [0, R) exactly with widths
//     in (0, BS].
package check

import "fmt"

// Must panics when err is non-nil, prefixing the failing call site.
// Structure validation failing under the spblockcheck tag means a
// builder produced a layout the kernels would silently mis-read, so an
// error return would only let the corruption travel further.
func Must(site string, err error) {
	if err != nil {
		panic(fmt.Sprintf("spblockcheck: %s: %v", site, err))
	}
}

// Tree verifies the CSF invariants for a tree of any order: level
// sizes, pointer spans, id ranges, sibling ordering, no childless
// nodes, leaf count. ids and ptrs are the per-level id and child
// pointer arrays (len(ptrs) == len(ids)-1); modeOrder maps level d to
// the tensor mode it stores; nVals is the leaf value count.
//
// The order-3 SPLATT structure is the three-level case: levels
// (slice ids, fiber k ids, leaf j ids), pointers (slice, fiber), mode
// order {0, 2, 1}.
func Tree(dims, modeOrder []int, ids, ptrs [][]int32, nVals int) error {
	n := len(dims)
	if n < 1 || len(ids) != n || len(ptrs) != n-1 || len(modeOrder) != n {
		return fmt.Errorf("malformed levels: order %d, %d id levels, %d ptr levels",
			n, len(ids), len(ptrs))
	}
	seen := make([]bool, n)
	for _, m := range modeOrder {
		if m < 0 || m >= n || seen[m] {
			return fmt.Errorf("invalid mode order %v", modeOrder)
		}
		seen[m] = true
	}
	for d := 0; d < n; d++ {
		if err := idRange(fmt.Sprintf("level %d ids", d), ids[d], dims[modeOrder[d]]); err != nil {
			return err
		}
	}
	for d := 0; d < n-1; d++ {
		if len(ptrs[d]) != len(ids[d])+1 {
			return fmt.Errorf("level %d: %d pointers for %d nodes", d, len(ptrs[d]), len(ids[d]))
		}
		if err := ptrSpan(fmt.Sprintf("level %d pointers", d), ptrs[d], len(ids[d+1])); err != nil {
			return err
		}
		// Children of one parent are sorted: strictly increasing above
		// the leaf level, non-decreasing at the leaves (duplicate
		// coordinates each keep their own leaf). Builders store only
		// non-empty slices and fibers, so a childless node is corrupt.
		strict := d+1 < n-1
		for x := 0; x < len(ids[d]); x++ {
			if ptrs[d][x] == ptrs[d][x+1] {
				return fmt.Errorf("level %d node %d has no children", d, x)
			}
			for ch := ptrs[d][x] + 1; ch < ptrs[d][x+1]; ch++ {
				prev, cur := ids[d+1][ch-1], ids[d+1][ch]
				if cur < prev || (strict && cur == prev) {
					return fmt.Errorf("level %d node %d: children not sorted at %d", d, x, ch)
				}
			}
		}
	}
	// Roots strictly increasing (each stored once).
	for x := 1; x < len(ids[0]); x++ {
		if ids[0][x] <= ids[0][x-1] {
			return fmt.Errorf("root ids not strictly increasing at %d", x)
		}
	}
	if len(ids[n-1]) != nVals {
		return fmt.Errorf("%d leaves for %d values", len(ids[n-1]), nVals)
	}
	return nil
}

// IDBox verifies that every id lies inside block coordinate b of a
// mode with the given block edge length and mode dimension — the
// axis-aligned containment invariant of blocked layouts.
func IDBox(name string, ids []int32, b, blockDim, dim int) error {
	lo := b * blockDim
	hi := lo + blockDim
	if hi > dim {
		hi = dim
	}
	for i, id := range ids {
		if int(id) < lo || int(id) >= hi {
			return fmt.Errorf("%s[%d] = %d outside block range [%d,%d)", name, i, id, lo, hi)
		}
	}
	return nil
}

// Coverage verifies that per-block nonzero counts sum to the tensor
// total: blocking must partition the nonzeros with no loss and no
// duplication.
func Coverage(covered, total int) error {
	if covered != total {
		return fmt.Errorf("blocks cover %d nonzeros, tensor has %d", covered, total)
	}
	return nil
}

// StripLadder verifies the rank-strip schedule: widths in (0, bs]
// covering [0, r) contiguously — the "strip widths <= BS" contract of
// Algorithm 2. A bs outside (0, r) means whole-rank execution and is
// trivially valid.
func StripLadder(r, bs int) error {
	if r <= 0 {
		return fmt.Errorf("rank %d", r)
	}
	if bs <= 0 || bs >= r {
		return nil // no strips: whole-rank execution
	}
	covered := 0
	for rr := 0; rr < r; rr += bs {
		w := bs
		if rr+w > r {
			w = r - rr
		}
		if w <= 0 || w > bs {
			return fmt.Errorf("strip at %d has width %d (bs %d)", rr, w, bs)
		}
		covered += w
	}
	return Coverage(covered, r)
}

func idRange(name string, ids []int32, dim int) error {
	for i, id := range ids {
		if id < 0 || int(id) >= dim {
			return fmt.Errorf("%s[%d] = %d outside [0,%d)", name, i, id, dim)
		}
	}
	return nil
}

func ptrSpan(name string, ptr []int32, next int) error {
	if len(ptr) == 0 {
		return fmt.Errorf("%s is empty", name)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("%s starts at %d", name, ptr[0])
	}
	if int(ptr[len(ptr)-1]) != next {
		return fmt.Errorf("%s ends at %d, next level has %d entries", name, ptr[len(ptr)-1], next)
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			return fmt.Errorf("%s not monotone at %d", name, i)
		}
	}
	return nil
}
