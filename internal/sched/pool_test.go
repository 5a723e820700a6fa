package sched

import (
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

// TestPoolRunsEveryUnitOnce: under the static, shared-static, stealing
// and ordered layouts, for 1–4 workers, every work unit runs exactly
// once per Run, and unit bodies only ever see worker indices below
// Workers() (index 0 for an inline sequential run).
func TestPoolRunsEveryUnitOnce(t *testing.T) {
	const n, runs = 37, 3
	cases := []struct {
		name   string
		split  Split
		policy Policy
	}{
		{"static", SplitShares, PolicyStatic},
		{"shared-static", SplitLayers, PolicyStatic},
		{"steal", SplitShares, PolicySteal},
		{"steal-layers", SplitLayers, PolicySteal},
		{"adaptive", SplitShares, PolicyAdaptive},
		{"ordered", SplitOrdered, PolicySteal},
	}
	for _, tc := range cases {
		for workers := 1; workers <= 4; workers++ {
			var met metrics.Collector
			var p Pool
			f := newFakeWork(n)
			p.Build(&met, workers, tc.policy, tc.split, n, skewCum(n), f.unit)
			if workers == 1 && p.Workers() != 0 {
				t.Fatalf("%s: one worker built %d runners, want an inline run", tc.name, p.Workers())
			}
			if workers > 1 && p.Workers() < 2 {
				t.Fatalf("%s workers=%d: built %d runners", tc.name, workers, p.Workers())
			}
			for run := 0; run < runs; run++ {
				start := time.Now()
				p.Run()
				p.EndRun(start)
			}
			for i := range f.hits {
				if got := f.hits[i].Load(); got != runs {
					t.Fatalf("%s workers=%d: unit %d ran %d times in %d runs", tc.name, workers, i, got, runs)
				}
			}
			if limit := max(p.Workers(), 1); f.maxW.Load() >= int64(limit) {
				t.Fatalf("%s workers=%d: unit saw worker %d, pool has %d", tc.name, workers, f.maxW.Load(), p.Workers())
			}
			if workers == 1 && f.calls.Load() != runs {
				t.Fatalf("%s: inline run called the unit %d times in %d runs", tc.name, f.calls.Load(), runs)
			}
		}
	}
}

// promotePool drives an adaptive pool's controller through its real
// ratchet: a synthetic busy-time delta on worker 0 before each run
// makes every window observe an imbalance near the worker count.
func promotePool(t *testing.T, p *Pool, met *metrics.Collector) {
	t.Helper()
	for i := 0; i <= DefaultPatience && met.Sched() != AdaptiveStealName; i++ {
		met.AddWorkerTime(0, 500*time.Millisecond)
		start := time.Now()
		p.Run()
		p.EndRun(start)
	}
	if met.Sched() != AdaptiveStealName || !p.Stealing() {
		t.Fatalf("ratchet never fired: sched = %q, stealing = %v", met.Sched(), p.Stealing())
	}
}

// TestPoolPromotionSurvivesResize: a rebuild at a new worker count
// keeps an adaptive pool's promotion, and an unpromoted pool's
// re-sized window baseline still lets the ratchet fire afterwards.
func TestPoolPromotionSurvivesResize(t *testing.T) {
	const n = 64
	var met metrics.Collector
	var p Pool
	f := newFakeWork(n)
	p.Build(&met, 4, PolicyAdaptive, SplitShares, n, skewCum(n), f.unit)
	promotePool(t, &p, &met)
	p.Resize(2)
	if met.Sched() != AdaptiveStealName || !p.Stealing() {
		t.Fatalf("promotion lost across Resize: sched = %q, stealing = %v", met.Sched(), p.Stealing())
	}
	if met.Workers() != 2 {
		t.Fatalf("metrics buckets = %d, want 2", met.Workers())
	}

	var met2 metrics.Collector
	var q Pool
	q.Build(&met2, 4, PolicyAdaptive, SplitLayers, n, skewCum(n), f.unit)
	start := time.Now()
	q.Run()
	q.EndRun(start)
	q.Resize(3)
	if met2.Sched() != AdaptiveStaticName || q.Stealing() {
		t.Fatalf("unpromoted pool after Resize: sched = %q, stealing = %v", met2.Sched(), q.Stealing())
	}
	promotePool(t, &q, &met2)
}

// TestPoolSteadyStateAllocationFree: after Build, Run and EndRun never
// touch the heap under any layout, including a promoted adaptive pool
// that steals.
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
		policy  Policy
	}{
		{"inline", 1, SplitShares, PolicyStatic},
		{"static", 4, SplitShares, PolicyStatic},
		{"shared-static", 4, SplitLayers, PolicyStatic},
		{"steal", 4, SplitShares, PolicySteal},
		{"ordered", 4, SplitOrdered, PolicyStatic},
		{"adaptive", 4, SplitLayers, PolicyAdaptive},
	} {
		var met metrics.Collector
		var p Pool
		p.Build(&met, tc.workers, tc.policy, tc.split, n, skewCum(n), unit)
		if tc.policy == PolicyAdaptive {
			promotePool(t, &p, &met)
		}
		allocs := testing.AllocsPerRun(20, func() {
			start := time.Now()
			p.Run()
			p.EndRun(start)
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per steady-state Run, want 0", tc.name, allocs)
		}
	}
}
