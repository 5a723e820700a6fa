package sched

import (
	"sync"
	"testing"
)

// drain claims everything worker w can reach and returns the covered
// item ranges plus how many claims were steals.
func drain(q *Queue, w int) (ranges [][2]int, steals int) {
	for {
		lo, hi, stolen, ok := q.Next(w)
		if !ok {
			return ranges, steals
		}
		if stolen {
			steals++
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
}

// TestQueueStaticOwnShare: under the ordered layout each worker claims
// exactly its own share and never steals, even once its own share is
// drained and the others' are still unclaimed.
func TestQueueStaticOwnShare(t *testing.T) {
	shares := [][2]int{{0, 5}, {5, 9}, {9, 20}}
	var q Queue
	q.InitOrdered(shares)
	for run := 0; run < 3; run++ {
		q.Reset()
		for w, want := range shares {
			got, steals := drain(&q, w)
			if steals != 0 {
				t.Fatalf("run %d worker %d stole %d chunks under the ordered layout", run, w, steals)
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("run %d worker %d claimed %v, want [%v]", run, w, got, want)
			}
		}
		// A worker beyond the share count finds nothing.
		if got, _ := drain(&q, len(shares)); got != nil {
			t.Fatalf("run %d extra worker claimed %v", run, got)
		}
	}
}

// TestQueueStaticShared: the shared single-segment layout hands units
// out in claim order to whoever asks — the MB layer queue.
func TestQueueStaticShared(t *testing.T) {
	units := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	var q Queue
	q.InitShared(units)
	q.Reset()
	seen := make(map[int]bool)
	for i := 0; i < len(units); i++ {
		lo, hi, stolen, ok := q.Next(i % 2)
		if !ok || stolen {
			t.Fatalf("claim %d: ok=%v stolen=%v", i, ok, stolen)
		}
		if hi != lo+1 || seen[lo] {
			t.Fatalf("claim %d: bad or duplicate unit [%d,%d)", i, lo, hi)
		}
		seen[lo] = true
	}
	if _, _, _, ok := q.Next(0); ok {
		t.Fatal("drained queue still handing out units")
	}
}

// TestQueueStealExactlyOnce: under concurrent draining with stealing
// active, every item is claimed exactly once per run. Run under -race
// this also checks the claim protocol's memory discipline.
func TestQueueStealExactlyOnce(t *testing.T) {
	const n, workers = 503, 4
	chunks := StealChunks(n, workers, func(i int) int64 { return int64(i + 1) })
	var q Queue
	q.InitStealing(chunks, workers)
	for run := 0; run < 5; run++ {
		q.Reset()
		claimed := make([][][2]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				claimed[w], _ = drain(&q, w)
			}(w)
		}
		wg.Wait()
		got := make([]int, n)
		for _, rs := range claimed {
			for _, r := range rs {
				for i := r[0]; i < r[1]; i++ {
					got[i]++
				}
			}
		}
		for i, c := range got {
			if c != 1 {
				t.Fatalf("run %d: item %d claimed %d times", run, i, c)
			}
		}
	}
}

// TestQueueStealVictimScan: a worker whose own segment is empty steals
// the rest of the queue, and the steals are flagged.
func TestQueueStealVictimScan(t *testing.T) {
	chunks := [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}
	var q Queue
	q.InitStealing(chunks, 2) // segs: worker 0 -> chunks 0,1; worker 1 -> chunks 2,3
	q.Reset()
	ranges, steals := drain(&q, 0)
	if len(ranges) != 4 || steals != 2 {
		t.Fatalf("lone worker claimed %v with %d steals, want all 4 chunks with 2 steals", ranges, steals)
	}
}

// TestQueueSetStealingRequiresLayout: stealing is a property of the
// installed layout alone. A queue that held the stealing layout and is
// re-initialised with the ordered one (as an executor's COO split is)
// keeps no trace of it: a lone worker claims only its own share and
// never steals.
func TestQueueSetStealingRequiresLayout(t *testing.T) {
	var q Queue
	q.InitStealing([][2]int{{0, 2}, {2, 4}, {4, 6}}, 2)
	q.InitOrdered([][2]int{{0, 3}, {3, 6}})
	q.Reset()
	got, steals := drain(&q, 0)
	if steals != 0 || len(got) != 1 || got[0] != [2]int{0, 3} {
		t.Fatalf("ordered layout after a stealing one: claimed %v with %d steals, want [[0 3]] and none", got, steals)
	}
}
