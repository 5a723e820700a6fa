package server

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"spblock/internal/core"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
)

// Entry is one cached tensor plus its lazily built multi-mode executor
// stack. The executor and the per-entry statistics are owned by the
// lease holder: a job acquires the lease for its whole run (workspaces
// are single-Run by contract), mutates freely, and publishes its
// statistics under mu before releasing, so /metrics never observes a
// stack mid-Run.
type Entry struct {
	fp string
	t  *nmode.Tensor

	// lease is the exclusivity token: buffered capacity 1, full while
	// a job owns the entry. Acquisition is context-cancellable.
	lease chan struct{}

	// eng is built on first use under the lease (nil until then).
	eng  *nmode.Engine
	plan core.Plan
	// workers is the stack's currently applied parallelism, owned by
	// the lease holder like eng. It starts at the plan's value (what
	// the build uses) and lets each job restore its own resolved count
	// without paying a SetWorkers rebuild when nothing changed.
	workers int

	// mu guards everything below — the published statistics side of
	// the entry, written by lease holders at job end and read by the
	// /metrics scrape without touching the executor.
	mu      sync.Mutex
	built   bool
	bytes   int64
	lastUse uint64
	jobs    int64
	leases  int64
	// pending counts Get handouts that have not yet been leased. An
	// entry with pending > 0 is pinned against eviction: evicting it
	// would orphan the caller's reference, and a later Executor build
	// on the orphan would charge bytes the cache can never reclaim.
	pending int
	snaps   []metrics.Snapshot
}

// Fingerprint returns the entry's cache key.
func (e *Entry) Fingerprint() string { return e.fp }

// Tensor returns the cached tensor. It is immutable once cached.
func (e *Entry) Tensor() *nmode.Tensor { return e.t }

// Acquire takes the entry's exclusive lease, waiting until the current
// holder releases it or ctx is done. Either way the Get pin is
// consumed: a caller that gives up on the lease no longer holds a
// reference the cache needs to protect.
func (e *Entry) Acquire(ctx context.Context) error {
	select {
	case e.lease <- struct{}{}:
	default:
		select {
		case e.lease <- struct{}{}:
		case <-ctx.Done():
			e.unpin()
			return ctx.Err()
		}
	}
	e.mu.Lock()
	e.leases++
	e.mu.Unlock()
	e.unpin()
	return nil
}

// unpin consumes one Get pin, saturating at zero so Acquire after a
// bare Put (no Get) stays balanced.
func (e *Entry) unpin() {
	e.mu.Lock()
	if e.pending > 0 {
		e.pending--
	}
	e.mu.Unlock()
}

// pinned reads the handout pin under mu.
func (e *Entry) pinned() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending > 0
}

// tryAcquire takes the lease only if it is free (the eviction probe).
func (e *Entry) tryAcquire() bool {
	select {
	case e.lease <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns the lease. Only the current holder may call it.
func (e *Entry) Release() { <-e.lease }

// publish records a finished job's observable state: per-mode metric
// snapshots from the (possibly just built) executor. Must be called by
// the lease holder, after the job's last Run — the snapshot is taken
// here, under exclusivity, precisely so the scrape path never has to.
func (e *Entry) publish() {
	var snaps []metrics.Snapshot
	if e.eng != nil {
		snaps = make([]metrics.Snapshot, e.eng.Order())
		for mode := range snaps {
			if met, err := e.eng.Metrics(mode); err == nil {
				snaps[mode] = met.Snapshot()
			}
		}
	}
	e.mu.Lock()
	e.jobs++
	if e.eng != nil {
		e.snaps = snaps
	}
	e.mu.Unlock()
}

// EntryStats is the scrape-side copy of an entry's published state.
type EntryStats struct {
	Fingerprint string
	Dims        []int
	NNZ         int
	Bytes       int64
	Jobs        int64
	Leases      int64
	Built       bool
	Snaps       []metrics.Snapshot
}

// Stats copies the published statistics out under mu.
func (e *Entry) Stats() EntryStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EntryStats{
		Fingerprint: e.fp,
		Dims:        e.t.Dims,
		NNZ:         e.t.NNZ(),
		Bytes:       e.bytes,
		Jobs:        e.jobs,
		Leases:      e.leases,
		Built:       e.built,
		Snaps:       e.snaps,
	}
}

// CacheConfig parameterises the executor cache.
type CacheConfig struct {
	// MaxBytes is the byte budget over cached tensors plus built
	// executor structures. When an insert or build pushes the total
	// over it, least-recently-used unleased entries are evicted until
	// the total fits (or only leased entries remain — the budget is a
	// target, never a reason to tear a stack out from under a job).
	// 0 means unlimited.
	MaxBytes int64
	// Plan is the kernel plan executor stacks are built with.
	Plan core.Plan
}

// CacheStats is a point-in-time copy of the cache's counters.
type CacheStats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Builds    int64
	Evictions int64
}

// Cache is the fingerprint-keyed executor cache. The map and the
// counters are guarded by mu; the entries themselves are guarded by
// their leases (executor side) and their own mutexes (stats side), so
// holding a lease across a long decomposition never blocks the cache.
type Cache struct {
	cfg CacheConfig

	mu      sync.Mutex
	tick    uint64
	total   int64
	entries map[string]*Entry

	hits      int64
	misses    int64
	builds    int64
	evictions int64
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Plan.Grid == ([3]int{}) {
		cfg.Plan.Grid = [3]int{1, 1, 1}
	}
	return &Cache{cfg: cfg, entries: make(map[string]*Entry)}
}

// tensorBytes estimates a coordinate tensor's resident footprint: one
// 4-byte index per mode and an 8-byte value per nonzero.
func tensorBytes(t *nmode.Tensor) int64 {
	return int64(t.NNZ()) * int64(4*t.Order()+8)
}

// Put inserts t under its fingerprint, or returns the existing entry
// when the same logical tensor is already cached (the upload-side
// dedup). The caller must have Validated and Deduped t.
func (c *Cache) Put(t *nmode.Tensor) (e *Entry, existed bool, err error) {
	fp, err := Fingerprint(t)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		c.touchLocked(e)
		return e, true, nil
	}
	e = &Entry{fp: fp, t: t, lease: make(chan struct{}, 1), plan: c.cfg.Plan, workers: c.cfg.Plan.Workers}
	e.bytes = tensorBytes(t)
	c.entries[fp] = e
	c.total += e.bytes
	c.touchLocked(e)
	c.evictLocked(e)
	return e, false, nil
}

// Get looks a fingerprint up, counting the job-side hit or miss. The
// returned entry is pinned against eviction until the caller's next
// Acquire resolves (successfully or not): the handout window between
// Get and Acquire is lease-free, and evicting during it would leave
// the caller holding an entry the cache has already forgotten.
func (c *Cache) Get(fp string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touchLocked(e)
	e.mu.Lock()
	e.pending++
	e.mu.Unlock()
	return e, true
}

// Executor returns the entry's multi-mode stack, building all three
// mode executors on first use and charging the build against the byte
// budget. The caller must hold the entry's lease.
func (c *Cache) Executor(e *Entry) (*nmode.Engine, error) {
	if e.eng != nil {
		return e.eng, nil
	}
	eng, err := core.NewEngine(e.t, e.plan)
	if err != nil {
		return nil, fmt.Errorf("server: building executors for %s: %w", e.fp[:12], err)
	}
	e.eng = eng
	delta := eng.MemoryBytes()
	e.mu.Lock()
	e.built = true
	e.bytes += delta
	e.mu.Unlock()
	c.mu.Lock()
	c.builds++
	// Only charge the build if the entry is still the cache's: an entry
	// evicted between handout and build is an orphan whose bytes were
	// already deducted, and charging it would inflate the budget with
	// bytes no future eviction can recover.
	if c.entries[e.fp] == e {
		c.total += delta
		c.evictLocked(e)
	}
	c.mu.Unlock()
	return eng, nil
}

// applyWorkers resolves a job's parallelism — the request's count when
// positive, the plan's otherwise — and applies it to the built stack
// only when it differs from what the previous lease holder left
// behind. A job that does not name a count must not inherit the
// previous job's resize: the plan's count is the entry's baseline, and
// restoring it here is what keeps one client's Workers knob from
// bleeding into the next client's job. Must be called by the lease
// holder, after the stack is built.
func (e *Entry) applyWorkers(requested int) error {
	w := requested
	if w <= 0 {
		w = e.plan.Workers
	}
	if w == e.workers {
		return nil
	}
	if err := e.eng.SetWorkers(w); err != nil {
		return err
	}
	e.workers = w
	return nil
}

// planString spells the plan the entry's executors run: the grid
// clamped to [1, dim] per mode, as the executors clamp it.
func (e *Entry) planString() string {
	p := e.plan
	for m, g := range p.Grid {
		if m < e.t.Order() {
			p.Grid[m] = min(max(g, 1), e.t.Dims[m])
		}
	}
	return p.String()
}

// touchLocked bumps e's LRU clock. Caller holds c.mu.
func (c *Cache) touchLocked(e *Entry) {
	c.tick++
	e.mu.Lock()
	e.lastUse = c.tick
	e.mu.Unlock()
}

// evictLocked drops least-recently-used entries until the budget fits,
// never touching `keep` or any entry whose lease a job holds — the
// budget is a target, not a license to tear a stack out from under a
// running decomposition. When only leased entries remain, the cache
// stays over budget until they release. Caller holds c.mu.
func (c *Cache) evictLocked(keep *Entry) {
	if c.cfg.MaxBytes <= 0 {
		return
	}
	for c.total > c.cfg.MaxBytes {
		candidates := make([]*Entry, 0, len(c.entries))
		for _, e := range c.entries {
			if e != keep {
				candidates = append(candidates, e)
			}
		}
		sort.Slice(candidates, func(a, b int) bool {
			return candidates[a].use() < candidates[b].use()
		})
		evicted := false
		for _, victim := range candidates {
			if victim.pinned() {
				// Handed out by Get but not yet leased: the holder is
				// about to Acquire and build against this entry.
				continue
			}
			if !victim.tryAcquire() {
				continue
			}
			delete(c.entries, victim.fp)
			victim.mu.Lock()
			c.total -= victim.bytes
			victim.mu.Unlock()
			c.evictions++
			victim.Release()
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// use reads the LRU clock under mu.
func (e *Entry) use() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastUse
}

// Stats copies the cache counters out.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.total,
		Hits:      c.hits,
		Misses:    c.misses,
		Builds:    c.builds,
		Evictions: c.evictions,
	}
}

// Snapshot copies every entry's published statistics, for the scrape.
func (c *Cache) Snapshot() []EntryStats {
	c.mu.Lock()
	list := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		list = append(list, e)
	}
	c.mu.Unlock()
	out := make([]EntryStats, 0, len(list))
	for _, e := range list {
		out = append(out, e.Stats())
	}
	return out
}
