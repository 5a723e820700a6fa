package sched

import "sync/atomic"

// cursor is one claimant's next-chunk index, padded to a cache line so
// neighbouring workers' claims never false-share.
type cursor struct {
	v atomic.Int64
	_ [56]byte
}

// Queue is a Pool's work-distribution state: one precomputed layout, a
// chunk list (contiguous work-unit ranges) plus the chunk-index segment
// each claimant owns. The layout is built on the cold path by
// Pool.Build and Pool.Resize (allocations allowed there and only
// there); the hot half — Reset before each launch, Next inside each
// worker loop — touches only preallocated state.
//
// Claim protocol: cursors only move forward, one CAS per chunk, so
// every chunk is handed out exactly once per run, and a claimant that
// observes a segment empty can rely on it staying empty for the rest
// of the run. That makes a single forward scan over victim segments a
// complete steal search — no retry loop, no termination flag.
//
//spblock:workspace
type Queue struct {
	chunks [][2]int
	segs   [][2]int
	// shared makes every worker drain segment 0; steal lets a worker
	// whose own segment is drained claim from the others'.
	shared bool
	steal  bool
	cur    []cursor
}

// InitOrdered installs the ordered layout: each worker owns exactly one
// contiguous share, claimed once per run, and never steals.
//
//spblock:coldpath
func (q *Queue) InitOrdered(shares [][2]int) {
	segs := make([][2]int, len(shares))
	for i := range segs {
		segs[i] = [2]int{i, i + 1}
	}
	*q = Queue{chunks: shares, segs: segs, cur: make([]cursor, len(segs))}
}

// InitShared installs a single shared segment all workers drain in
// claim order — the multi-block layer queue, one unit per block layer.
//
//spblock:coldpath
func (q *Queue) InitShared(units [][2]int) {
	*q = Queue{chunks: units, segs: [][2]int{{0, len(units)}}, shared: true, cur: make([]cursor, 1)}
}

// InitStealing installs the work-stealing layout: a weight-balanced
// chunk list (see StealChunks) split into one contiguous chunk-index
// segment per worker. Workers drain their own segment first and then
// scan the others.
//
//spblock:coldpath
func (q *Queue) InitStealing(chunks [][2]int, workers int) {
	workers = max(workers, 1)
	segs := make([][2]int, workers)
	for w := range segs {
		segs[w] = [2]int{len(chunks) * w / workers, len(chunks) * (w + 1) / workers}
	}
	*q = Queue{chunks: chunks, segs: segs, steal: true, cur: make([]cursor, workers)}
}

// Reset rewinds the cursors to the start of each segment. Called once
// per run, before the workers launch.
//
//spblock:hotpath
func (q *Queue) Reset() {
	for i := range q.segs {
		q.cur[i].v.Store(int64(q.segs[i][0]))
	}
}

// Next claims the next work-unit range for worker w. stolen reports
// that the range came from another worker's segment (counted into the
// metrics steal buckets); ok=false means the run's work is exhausted
// for this worker.
//
//spblock:hotpath
func (q *Queue) Next(w int) (lo, hi int, stolen, ok bool) {
	own := w
	if q.shared {
		own = 0
	}
	if own < len(q.segs) {
		if c := q.claim(own); c >= 0 {
			u := q.chunks[c]
			return u[0], u[1], false, true
		}
	}
	if !q.steal {
		return 0, 0, false, false
	}
	// Own segment drained: one forward scan over the victims. Cursors
	// never rewind mid-run, so a segment observed empty is empty for
	// good and a single pass is a complete search.
	n := len(q.segs)
	for i := 1; i < n; i++ {
		v := w + i
		if v >= n {
			v -= n
		}
		if c := q.claim(v); c >= 0 {
			u := q.chunks[c]
			return u[0], u[1], true, true
		}
	}
	return 0, 0, false, false
}

// claim pops the next chunk index from segment s, or -1 if drained.
//
//spblock:hotpath
func (q *Queue) claim(s int) int {
	seg := q.segs[s]
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
