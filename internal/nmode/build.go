package nmode

import "fmt"

// Span names the nonzeros one CSF tree is built from.
type Span struct {
	// Idx[m][p] and Val[p] hold the coordinates and value at position p.
	Idx [][]Index
	Val []float64
	// Sel lists the positions to build from, in input order; nil
	// selects every position of Val.
	Sel []int32
	// Mode m's sort key is Idx[m][p] - Base[m] (Base nil means 0) and
	// must lie in [0, Ext[m]): a block's keys are its local coordinates.
	Base []Index
	Ext  []int
}

// Builder is the one CSF construction routine. Every tree in the
// module comes from Builder.Tree: Build over a whole tensor (the memo
// pair tree included), each BuildBlocked block, each out-of-core slot,
// and the SPLATT trees of tensor.BuildCSF. A Builder owns the sort
// scratch, so successive trees reuse it.
type Builder struct {
	perm, tmp []int32   // positions in mode order; the sort's double buffer, then the boundary levels
	counts    []int32   // counting-sort buckets
	keys      [][]Index // keys[d]: coordinates at tree level d
	levels    []int     // levels[d]: node count at tree level d
	fill      []int     // fill[d]: level-d nodes emitted so far
}

// NewBuilder sizes a Builder for order-`order` trees of up to maxNNZ
// nonzeros whose sort keys lie below maxExt.
//
//spblock:coldpath
func NewBuilder(order, maxNNZ, maxExt int) *Builder {
	return &Builder{
		perm:   make([]int32, maxNNZ),
		tmp:    make([]int32, maxNNZ),
		counts: make([]int32, maxExt+1),
		keys:   make([][]Index, order),
		levels: make([]int, order),
		fill:   make([]int, order),
	}
}

// Tree builds the CSF of s's nonzeros under mode order mo into dst,
// whose ID and Ptr must have one slice per level. A stable LSD counting
// sort puts the nonzeros in mode order (skipped when they already
// are); ids and child pointers are then emitted at the node
// boundaries. Every level array is dst's own resliced when its
// capacity suffices, else allocated at exactly its length, and dst
// keeps mo (not a copy) as its ModeOrder. Duplicate coordinates stay
// distinct leaves, in input order.
//
//spblock:hotpath
func (b *Builder) Tree(dst *CSF, s *Span, mo []int) {
	perm := b.arrange(s, mo)
	last := len(mo) - 1
	n := b.levels[last]
	for d := 0; d < last; d++ {
		dst.ID[d] = fitIndex(dst.ID[d], b.levels[d])
		dst.Ptr[d] = fitIndex(dst.Ptr[d], b.levels[d]+1)
	}
	// A nonzero with boundary level l opens one node on each of levels
	// l..last-1; that node's first child is the level-below node (or
	// leaf) the same nonzero opens next.
	fill := b.fill
	clear(fill)
	for p, l := range b.tmp[:n] {
		if int(l) == last {
			continue
		}
		q := int32(p)
		if perm != nil {
			q = perm[p]
		}
		fill[last] = p
		for d := int(l); d < last; d++ {
			x := fill[d]
			dst.ID[d][x] = b.keys[d][q]
			dst.Ptr[d][x] = int32(fill[d+1])
			fill[d]++
		}
	}
	fill[last] = n
	for d := 0; d < last; d++ {
		dst.Ptr[d][fill[d]] = int32(fill[d+1])
	}
	ids := fitIndex(dst.ID[last], n)
	val := fitValue(dst.Val, n)
	if perm == nil {
		copy(ids, b.keys[last])
		copy(val, s.Val)
	} else {
		key := b.keys[last]
		for p, x := range perm {
			ids[p] = key[x]
			val[p] = s.Val[x]
		}
	}
	dst.ID[last], dst.Val = ids, val
	dst.ModeOrder = mo
}

// arrange orders s's nonzeros by mo and returns their positions in
// that order, or nil when s selects every position and they already
// are in mode order (then nothing was sorted). It leaves in b.tmp the
// boundary level of each nonzero (the shallowest level at which it
// differs from its predecessor; a duplicate opens only a leaf) and in
// b.levels the node count per level.
//
//spblock:hotpath
func (b *Builder) arrange(s *Span, mo []int) []int32 {
	perm, bounded := b.sortPerm(s, mo)
	if !bounded {
		b.boundaries(perm, len(perm))
	}
	return perm
}

// sortPerm is arrange without the boundary levels when it had to sort:
// bounded reports whether b.tmp and b.levels already hold them.
//
//spblock:hotpath
func (b *Builder) sortPerm(s *Span, mo []int) (perm []int32, bounded bool) {
	n := len(s.Val)
	for d, m := range mo {
		b.keys[d] = s.Idx[m]
	}
	if s.Sel == nil {
		if b.boundaries(nil, n) {
			return nil, true
		}
		perm = b.perm[:n]
		for p := range perm {
			perm[p] = int32(p)
		}
	} else {
		n = len(s.Sel)
		perm = b.perm[:n]
		copy(perm, s.Sel)
		if b.boundaries(perm, n) {
			return perm, true
		}
	}
	other := b.tmp[:n]
	for d := len(mo) - 1; d >= 0; d-- {
		m := mo[d]
		key := s.Idx[m]
		var lo Index
		if s.Base != nil {
			lo = s.Base[m]
		}
		ext := s.Ext[m]
		counts := b.counts[:ext+1]
		clear(counts)
		for _, x := range perm {
			counts[key[x]-lo+1]++
		}
		for k := 0; k < ext; k++ {
			counts[k+1] += counts[k]
		}
		for _, x := range perm {
			k := key[x] - lo
			other[counts[k]] = x
			counts[k]++
		}
		perm, other = other, perm
	}
	b.perm, b.tmp = perm[:cap(perm)], other[:cap(other)]
	return perm, false
}

// boundaries fills b.tmp and b.levels for the n nonzeros at positions
// perm (nil: 0..n-1), or returns false at the first pair of neighbours
// out of mode order.
//
//spblock:hotpath
func (b *Builder) boundaries(perm []int32, n int) bool {
	bnd, levels, keys := b.tmp[:n], b.levels, b.keys
	clear(levels)
	last := len(levels) - 1
	for p := 1; p < n; p++ {
		x, y := int32(p-1), int32(p)
		if perm != nil {
			x, y = perm[p-1], perm[p]
		}
		l := 0
		for l < last && keys[l][y] == keys[l][x] {
			l++
		}
		if keys[l][y] < keys[l][x] {
			return false
		}
		bnd[p] = int32(l)
		// Every nonzero is a leaf; only interior node starts are counted.
		if l < last {
			levels[l]++
		}
	}
	if n > 0 {
		bnd[0] = 0
		levels[0]++
	}
	for d := 1; d < last; d++ {
		levels[d] += levels[d-1]
	}
	levels[last] = n
	return true
}

// fitIndex returns buf resliced to n, or a new slice of exactly n when
// buf is too short.
//
//spblock:hotpath
func fitIndex(buf []Index, n int) []Index {
	if cap(buf) < n {
		return make([]Index, n) //spblock:allow exact-size build output; out-of-core slots are pre-capped to the largest block, so their steady state never reaches this
	}
	return buf[:n]
}

// fitValue is fitIndex for the leaf values.
//
//spblock:hotpath
func fitValue(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //spblock:allow exact-size build output; out-of-core slots are pre-capped to the largest block, so their steady state never reaches this
	}
	return buf[:n]
}

// newTree allocates an empty tree over dims with one (nil) level slice
// per mode for Tree to size exactly.
func newTree(dims []int) *CSF {
	n := len(dims)
	return &CSF{Dims: dims, ID: make([][]Index, n), Ptr: make([][]int32, n-1)}
}

// checkModeOrder rejects anything but a permutation of the n modes.
func checkModeOrder(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("%w: mode order %v for order-%d tensor", ErrBadTensor, order, n)
	}
	seen := make([]bool, n)
	for _, m := range order {
		if m < 0 || m >= n || seen[m] {
			return fmt.Errorf("%w: bad mode order %v", ErrBadTensor, order)
		}
		seen[m] = true
	}
	return nil
}
