package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spblock/internal/metrics"
	"spblock/internal/testutil/raceflag"
)

// fakeWork is a unit body that counts how often each work unit runs
// and records the largest worker index it was called with.
type fakeWork struct {
	hits  []atomic.Int64
	maxW  atomic.Int64
	calls atomic.Int64
}

func newFakeWork(n int) *fakeWork { return &fakeWork{hits: make([]atomic.Int64, n)} }

func (f *fakeWork) unit(w, lo, hi int) {
	f.calls.Add(1)
	for {
		m := f.maxW.Load()
		if int64(w) <= m || f.maxW.CompareAndSwap(m, int64(w)) {
			break
		}
	}
	for i := lo; i < hi; i++ {
		f.hits[i].Add(1)
	}
}

// skewCum weights unit i by i%7+1, so weighted shares are uneven.
func skewCum(n int) func(int) int64 {
	prefix := make([]int64, n)
	var total int64
	for i := range prefix {
		total += int64(i%7 + 1)
		prefix[i] = total
	}
	return func(i int) int64 { return prefix[i] }
}

// TestPoolRunsEveryUnitOnce: under the stealing, shared and ordered
// layouts, for 1–4 workers and again after a Resize to every other
// count, every work unit runs exactly once per Run, and unit bodies
// only ever see worker indices below Workers() (index 0 for an inline
// sequential run).
func TestPoolRunsEveryUnitOnce(t *testing.T) {
	const n, runs = 37, 3
	for _, split := range []Split{SplitShares, SplitLayers, SplitOrdered} {
		for workers := 1; workers <= 4; workers++ {
			for resized := 0; resized <= 4; resized++ {
				var met metrics.Collector
				var p Pool
				f := newFakeWork(n)
				p.Build(&met, workers, split, n, skewCum(n), f.unit)
				w := workers
				if resized > 0 {
					p.Resize(resized)
					w = resized
				}
				if w == 1 && p.Workers() != 0 {
					t.Fatalf("split %d: one worker built %d runners, want an inline run", split, p.Workers())
				}
				if w > 1 && p.Workers() < 2 {
					t.Fatalf("split %d workers=%d: built %d runners", split, w, p.Workers())
				}
				if met.Workers() != max(p.Workers(), 1) {
					t.Fatalf("split %d workers=%d: %d metrics buckets for %d runners", split, w, met.Workers(), p.Workers())
				}
				for run := 0; run < runs; run++ {
					p.Run()
				}
				for i := range f.hits {
					if got := f.hits[i].Load(); got != runs {
						t.Fatalf("split %d workers=%d: unit %d ran %d times in %d runs", split, w, i, got, runs)
					}
				}
				if limit := max(p.Workers(), 1); f.maxW.Load() >= int64(limit) {
					t.Fatalf("split %d workers=%d: unit saw worker %d, pool has %d", split, w, f.maxW.Load(), p.Workers())
				}
				if w == 1 && f.calls.Load() != runs {
					t.Fatalf("split %d: inline run called the unit %d times in %d runs", split, f.calls.Load(), runs)
				}
			}
		}
	}
}

// TestPoolStealsFromHeldWorker makes a steal certain instead of likely:
// worker 0's unit body holds inside its first chunk until another
// worker has claimed a chunk from worker 0's segment. The run must
// finish with at least one steal counted and every unit run exactly
// once. A queue that never steals leaves worker 0 waiting until the
// deadline and fails.
func TestPoolStealsFromHeldWorker(t *testing.T) {
	const n, workers = 64, 2
	var met metrics.Collector
	var p Pool
	hits := make([]atomic.Int64, n)
	stolen := make(chan struct{})
	var once sync.Once
	var seg0 [2]int // work-unit range of worker 0's segment
	var held atomic.Bool
	timedOut := false
	p.Build(&met, workers, SplitShares, n, skewCum(n), func(w, lo, hi int) {
		if w != 0 && lo >= seg0[0] && hi <= seg0[1] {
			once.Do(func() { close(stolen) })
		}
		if w == 0 && held.CompareAndSwap(false, true) {
			select {
			case <-stolen:
			case <-time.After(10 * time.Second):
				timedOut = true
			}
		}
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	if p.Workers() != workers {
		t.Fatalf("built %d runners, want %d", p.Workers(), workers)
	}
	s := p.q.segs[0]
	if s[1]-s[0] < 2 {
		t.Fatalf("worker 0's segment holds %d chunks; the test needs two", s[1]-s[0])
	}
	seg0 = [2]int{p.q.chunks[s[0]][0], p.q.chunks[s[1]-1][1]}
	p.Run()
	if timedOut {
		t.Fatal("no other worker claimed a chunk from held worker 0's segment")
	}
	if steals := met.Snapshot().Steals(); steals == 0 {
		t.Fatal("run finished with no steal counted")
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("unit %d ran %d times", i, got)
		}
	}
}

// TestPoolPromotionSurvivesResize: a rebuild at a new worker count
// keeps each split's layout. A SplitShares pool still steals after
// Resize, with one segment per new worker over the full chunk list;
// a SplitLayers pool keeps its one shared segment; the metrics buckets
// follow the new count.
func TestPoolPromotionSurvivesResize(t *testing.T) {
	const n = 64
	f := newFakeWork(n)
	for _, tc := range []struct {
		split         Split
		steal, shared bool
	}{
		{SplitShares, true, false},
		{SplitLayers, false, true},
	} {
		var met metrics.Collector
		var p Pool
		p.Build(&met, 4, tc.split, n, skewCum(n), f.unit)
		p.Resize(2)
		if p.Workers() != 2 || met.Workers() != 2 {
			t.Fatalf("split %d: %d runners and %d metrics buckets after Resize(2), want 2", tc.split, p.Workers(), met.Workers())
		}
		if p.q.steal != tc.steal || p.q.shared != tc.shared {
			t.Fatalf("split %d after Resize: steal=%v shared=%v, want %v %v", tc.split, p.q.steal, p.q.shared, tc.steal, tc.shared)
		}
		if tc.steal {
			if len(p.q.segs) != 2 || p.q.segs[0][0] != 0 || p.q.segs[1][1] != len(p.q.chunks) {
				t.Fatalf("stealing segments after Resize(2): %v over %d chunks", p.q.segs, len(p.q.chunks))
			}
			if last := p.q.chunks[len(p.q.chunks)-1]; p.q.chunks[0][0] != 0 || last[1] != n {
				t.Fatalf("stealing chunks after Resize(2) span [%d,%d), want [0,%d)", p.q.chunks[0][0], last[1], n)
			}
		}
	}
}

// TestPoolSteadyStateAllocationFree: after Build, Run never touches the
// heap under any layout.
func TestPoolSteadyStateAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const n = 48
	sink := make([]int64, n)
	unit := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	}
	for _, tc := range []struct {
		name    string
		workers int
		split   Split
	}{
		{"inline", 1, SplitShares},
		{"steal", 4, SplitShares},
		{"shared", 4, SplitLayers},
		{"ordered", 4, SplitOrdered},
	} {
		var met metrics.Collector
		var p Pool
		p.Build(&met, tc.workers, tc.split, n, skewCum(n), unit)
		allocs := testing.AllocsPerRun(20, func() {
			start := time.Now()
			p.Run()
			met.EndRun(start)
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per steady-state Run, want 0", tc.name, allocs)
		}
	}
}
