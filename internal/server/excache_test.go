package server

import (
	"context"
	"testing"

	"spblock/internal/core"
)

// entryBytesSum adds up the resident entries' published byte counts —
// the number Cache.Stats().Bytes must always equal. Any gap is mass
// the budget can never reclaim (or has double-reclaimed).
func entryBytesSum(c *Cache) int64 {
	var sum int64
	for _, es := range c.Snapshot() {
		sum += es.Bytes
	}
	return sum
}

// resident reports membership without going through Get, which would
// count a hit, bump the LRU clock and pin the entry.
func resident(c *Cache, fp string) bool {
	for _, es := range c.Snapshot() {
		if es.Fingerprint == fp {
			return true
		}
	}
	return false
}

// TestExecutorBuildOnOrphanedEntryNotCharged replays the accounting
// race: an entry handed out and then evicted before its job builds the
// executor stack. The build's MemoryBytes must NOT be charged to the
// cache total — the entry is an orphan whose bytes were already
// deducted at eviction, so the charge would inflate the budget
// permanently (no future eviction can find the entry to refund it).
//
// The handout here goes through Put's return value, which carries no
// eviction pin — exactly the lease-free window the race needs.
func TestExecutorBuildOnOrphanedEntryNotCharged(t *testing.T) {
	a := randCOO(1, []int{12, 10, 8}, 200)
	budget := tensorBytes(a) + tensorBytes(a)/8
	c := NewCache(CacheConfig{MaxBytes: budget, Plan: core.Plan{Method: core.MethodSPLATT}})

	ea, _, _ := c.Put(a)
	// A second insert pushes over budget and evicts the unleased,
	// unpinned entry: ea is now orphaned but the job still holds it.
	c.Put(randCOO(2, []int{12, 10, 8}, 200))
	if resident(c, ea.Fingerprint()) {
		t.Fatal("orphan setup failed: first entry was not evicted")
	}

	// The orphan's job proceeds obliviously: lease, build, run, release.
	if err := ea.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Executor(ea); err != nil {
		t.Fatal(err)
	}
	ea.Release()

	// The orphaned job is done; the cache total must account exactly
	// for the entries it still holds, nothing more.
	if got, want := c.Stats().Bytes, entryBytesSum(c); got != want {
		t.Fatalf("orphan build leaked into the budget: cache says %d bytes, resident entries hold %d", got, want)
	}
	if es := ea.Stats(); !es.Built || es.Bytes <= tensorBytes(a) {
		t.Fatalf("orphan's own stats must still see the build: %+v", es)
	}
}

// TestGetPinsEntryAgainstEviction pins the other half of the fix: an
// entry handed out by Get must survive eviction pressure until the
// holder's Acquire resolves, so the Get→Acquire window can never
// orphan a job's entry.
func TestGetPinsEntryAgainstEviction(t *testing.T) {
	a := randCOO(3, []int{12, 10, 8}, 200)
	budget := tensorBytes(a) + tensorBytes(a)/8
	c := NewCache(CacheConfig{MaxBytes: budget, Plan: core.Plan{Method: core.MethodSPLATT}})

	ea, _, _ := c.Put(a)
	fp := ea.Fingerprint()
	got, ok := c.Get(fp)
	if !ok {
		t.Fatal("entry vanished immediately after Put")
	}

	// Eviction pressure during the handout window: the pinned entry
	// must be passed over even though it is least recently used.
	c.Put(randCOO(4, []int{12, 10, 8}, 200))
	if !resident(c, fp) {
		t.Fatal("pinned entry was evicted during the Get→Acquire window")
	}

	// Acquire consumes the pin; afterwards the entry is fair game.
	if err := got.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Executor(got); err != nil {
		t.Fatal(err)
	}
	got.Release()
	if bytes, want := c.Stats().Bytes, entryBytesSum(c); bytes != want {
		t.Fatalf("cache says %d bytes, resident entries hold %d", bytes, want)
	}

	c.Put(randCOO(5, []int{12, 10, 8}, 200))
	if resident(c, fp) {
		t.Fatal("released entry survived eviction pressure after its pin was consumed")
	}
	if bytes, want := c.Stats().Bytes, entryBytesSum(c); bytes != want {
		t.Fatalf("evicting the built entry did not refund its bytes: cache says %d, entries hold %d", bytes, want)
	}
}

// TestAcquireCancelConsumesPin guards the failure path: a caller that
// gives up waiting for the lease must not leave its Get pin behind, or
// the entry would be unevictable forever.
func TestAcquireCancelConsumesPin(t *testing.T) {
	a := randCOO(6, []int{12, 10, 8}, 200)
	budget := tensorBytes(a) + tensorBytes(a)/8
	c := NewCache(CacheConfig{MaxBytes: budget, Plan: core.Plan{Method: core.MethodSPLATT}})

	ea, _, _ := c.Put(a)
	if err := ea.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	pinned, ok := c.Get(ea.Fingerprint())
	if !ok {
		t.Fatal("entry missing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pinned.Acquire(ctx); err == nil {
		t.Fatal("Acquire succeeded against a held lease with a canceled context")
	}
	ea.Release()

	// The canceled caller is gone; the entry must be evictable again.
	c.Put(randCOO(7, []int{12, 10, 8}, 200))
	if resident(c, ea.Fingerprint()) {
		t.Fatal("canceled Acquire leaked its pin: entry is unevictable")
	}
}
