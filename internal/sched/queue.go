package sched

import "sync/atomic"

// cursor is one claimant's next-chunk index, padded to a cache line so
// neighbouring workers' claims never false-share.
type cursor struct {
	v atomic.Int64
	_ [56]byte
}

// layout is one precomputed way of carving a run's work: a chunk list
// (contiguous work-unit ranges) plus the chunk-index segment each
// claimant owns. shared marks the degenerate single-segment form where
// every worker drains one queue — the historical multi-block layer
// counter.
type layout struct {
	chunks [][2]int
	segs   [][2]int
	shared bool
}

// Queue is a Pool's work-distribution state. Both layouts are built on
// the cold path by Pool.Build and Pool.Resize (allocations allowed
// there and only there); the hot half — Reset before each launch, Next
// inside each worker loop — touches only preallocated state. Promotion
// from the static to the stealing layout is a flag flip, so the
// adaptive controller can promote between runs without allocating.
//
// Claim protocol: cursors only move forward, one CAS per chunk, so
// every chunk is handed out exactly once per run, and a claimant that
// observes a segment empty can rely on it staying empty for the rest
// of the run. That makes a single forward scan over victim segments a
// complete steal search — no retry loop, no termination flag.
//
//spblock:workspace
type Queue struct {
	static   layout
	stealing layout
	// steal selects the active layout. Written only by the launching
	// goroutine between runs (SetStealing happens strictly after
	// wg.Wait and before the next go statement), so workers always
	// observe it through a happens-before edge.
	steal bool
	cur   []cursor
}

// InitStatic installs the static layout: each worker owns exactly one
// contiguous share, claimed once per run. Bit-identical to the
// pre-sched per-worker share slices.
//
//spblock:coldpath
func (q *Queue) InitStatic(shares [][2]int) {
	segs := make([][2]int, len(shares))
	for i := range segs {
		segs[i] = [2]int{i, i + 1}
	}
	q.static = layout{chunks: shares, segs: segs}
	q.ensureCursors(len(segs))
}

// InitStaticShared installs a single shared segment all workers drain
// in claim order — the historical multi-block nextLayer counter, one
// unit per block layer.
//
//spblock:coldpath
func (q *Queue) InitStaticShared(units [][2]int) {
	q.static = layout{chunks: units, segs: [][2]int{{0, len(units)}}, shared: true}
	q.ensureCursors(1)
}

// InitStealing installs the work-stealing layout: a weight-balanced
// chunk list (see StealChunks) split into one contiguous chunk-index
// segment per worker. Workers drain their own segment first and then
// scan the others.
//
//spblock:coldpath
func (q *Queue) InitStealing(chunks [][2]int, workers int) {
	if workers < 1 {
		workers = 1
	}
	segs := make([][2]int, workers)
	for w := range segs {
		segs[w] = [2]int{len(chunks) * w / workers, len(chunks) * (w + 1) / workers}
	}
	q.stealing = layout{chunks: chunks, segs: segs}
	q.ensureCursors(workers)
}

//spblock:coldpath
func (q *Queue) ensureCursors(n int) {
	if n < 1 {
		n = 1
	}
	if len(q.cur) < n {
		q.cur = make([]cursor, n)
	}
}

// SetStealing flips the active layout. A request to steal is ignored
// unless InitStealing was called — work that must stay static
// (SplitOrdered, COO's ordered privatised reduction) simply never
// builds the stealing layout. Must only be called between runs, from the goroutine that
// launches the workers.
//
//spblock:hotpath
func (q *Queue) SetStealing(on bool) {
	if on && q.stealing.chunks == nil {
		return
	}
	q.steal = on
}

// Stealing reports whether the stealing layout is active.
func (q *Queue) Stealing() bool { return q.steal }

// CanSteal reports whether a stealing layout was built — i.e. whether
// SetStealing(true) would have any effect.
func (q *Queue) CanSteal() bool { return q.stealing.chunks != nil }

// active returns the layout the current run claims from.
//
//spblock:hotpath
func (q *Queue) active() *layout {
	if q.steal {
		return &q.stealing
	}
	return &q.static
}

// Reset rewinds the active layout's cursors to the start of each
// segment. Called once per run, before the workers launch.
//
//spblock:hotpath
func (q *Queue) Reset() {
	l := q.active()
	for i := range l.segs {
		q.cur[i].v.Store(int64(l.segs[i][0]))
	}
}

// Next claims the next work-unit range for worker w. stolen reports
// that the range came from another worker's segment (counted into the
// metrics steal buckets); ok=false means the run's work is exhausted
// for this worker.
//
//spblock:hotpath
func (q *Queue) Next(w int) (lo, hi int, stolen, ok bool) {
	l := q.active()
	if l.shared {
		if c := q.claim(0, l); c >= 0 {
			u := l.chunks[c]
			return u[0], u[1], false, true
		}
		return 0, 0, false, false
	}
	if w < len(l.segs) {
		if c := q.claim(w, l); c >= 0 {
			u := l.chunks[c]
			return u[0], u[1], false, true
		}
	}
	if !q.steal {
		return 0, 0, false, false
	}
	// Own segment drained: one forward scan over the victims. Cursors
	// never rewind mid-run, so a segment observed empty is empty for
	// good and a single pass is a complete search.
	n := len(l.segs)
	for i := 1; i < n; i++ {
		v := w + i
		if v >= n {
			v -= n
		}
		if c := q.claim(v, l); c >= 0 {
			u := l.chunks[c]
			return u[0], u[1], true, true
		}
	}
	return 0, 0, false, false
}

// claim pops the next chunk index from segment s, or -1 if drained.
//
//spblock:hotpath
func (q *Queue) claim(s int, l *layout) int {
	seg := l.segs[s]
	for {
		c := q.cur[s].v.Load()
		if int(c) >= seg[1] {
			return -1
		}
		if q.cur[s].v.CompareAndSwap(c, c+1) {
			return int(c)
		}
	}
}
