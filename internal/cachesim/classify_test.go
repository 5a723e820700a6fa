package cachesim

import (
	"math/rand"
	"testing"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func testClassifier(t *testing.T) *Classifier {
	t.Helper()
	// 4 lines of 64 B, 2 sets x 2 ways.
	c, err := NewClassifier(LevelConfig{Name: "L1", Size: 256, Ways: 2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(LevelConfig{Size: 256, Ways: 2}, 0); err == nil {
		t.Fatal("zero line size accepted")
	}
	if _, err := NewClassifier(LevelConfig{Size: 0, Ways: 2}, 64); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestClassifierCompulsory(t *testing.T) {
	c := testClassifier(t)
	c.Touch(RegionB, 0, 8)
	c.Touch(RegionB, 0, 8)
	m := c.Region(RegionB)
	if m.Compulsory != 1 || m.Hits != 1 || m.Capacity != 0 || m.Conflict != 0 {
		t.Fatalf("classification = %+v", m)
	}
	if m.Misses() != 1 {
		t.Fatalf("misses = %d", m.Misses())
	}
}

func TestClassifierCapacity(t *testing.T) {
	c := testClassifier(t)
	// Stream 8 distinct lines (twice the 4-line capacity), then revisit
	// the first: it missed in both the real and the fully-associative
	// shadow -> capacity.
	for l := int64(0); l < 8; l++ {
		c.Touch(RegionB, l*64, 8)
	}
	c.Touch(RegionB, 0, 8)
	m := c.Region(RegionB)
	if m.Compulsory != 8 {
		t.Fatalf("compulsory = %d, want 8", m.Compulsory)
	}
	if m.Capacity != 1 || m.Conflict != 0 {
		t.Fatalf("classification = %+v, want one capacity miss", m)
	}
}

func TestClassifierConflict(t *testing.T) {
	c := testClassifier(t)
	// Three lines mapping to set 0 (even line indices) in a 2-way set:
	// they fit the 4-line capacity but not the set -> conflict misses
	// on revisit.
	c.Touch(RegionB, 0*64, 8)
	c.Touch(RegionB, 2*64, 8)
	c.Touch(RegionB, 4*64, 8) // evicts line 0 from the set
	c.Touch(RegionB, 0*64, 8) // shadow (fully assoc, 4 lines) still holds it
	m := c.Region(RegionB)
	if m.Conflict != 1 {
		t.Fatalf("classification = %+v, want one conflict miss", m)
	}
	if m.Capacity != 0 {
		t.Fatalf("unexpected capacity misses: %+v", m)
	}
}

func TestClassifierTotalAndRegions(t *testing.T) {
	c := testClassifier(t)
	c.Touch(RegionA, 0, 8)
	c.Touch(RegionB, 0, 8)
	tot := c.Total()
	if tot.Compulsory != 2 || tot.Hits != 0 {
		t.Fatalf("total = %+v", tot)
	}
	if c.Region(RegionA).Compulsory != 1 {
		t.Fatal("per-region attribution broken")
	}
	c.Touch(RegionA, 0, 0) // no-op
	if c.Total().Misses() != 2 {
		t.Fatal("zero-size touch counted")
	}
}

func TestFALRUBehaviour(t *testing.T) {
	f := newFALRU(2)
	if f.access(1) || f.access(2) {
		t.Fatal("cold accesses hit")
	}
	if !f.access(1) {
		t.Fatal("warm access missed")
	}
	f.access(3) // evicts 2 (LRU), not 1
	if !f.access(1) {
		t.Fatal("recently used line evicted")
	}
	if f.access(2) {
		t.Fatal("LRU line not evicted")
	}
	// Capacity clamp.
	if newFALRU(0).capacity != 1 {
		t.Fatal("capacity not clamped")
	}
}

// The headline use: unpacked power-of-two rank strips generate almost
// pure *conflict* misses on B, and packing converts the kernel's B
// misses to compulsory-only — a precise statement of why Sec. V-B's
// rearrangement works.
func TestStripPackingKillsConflictMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dims := []int{32, 512, 32}
	x := nmode.NewTensor(dims, 20000)
	for p := 0; p < 20000; p++ {
		x.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, 1)
	}
	tensor.Dedup(x)
	csf, err := nmode.Build(x, tensor.SPLATTModeOrder())
	if err != nil {
		t.Fatal(err)
	}
	l2 := LevelConfig{Name: "L2", Size: 512 << 10, Ways: 8}

	classify := func(noPack bool) MissClass {
		c, err := NewClassifier(l2, 128)
		if err != nil {
			t.Fatal(err)
		}
		if err := TraceRankB(c, Options{Rank: 512, RankBlockCols: 64, NoStripPacking: noPack}, csf); err != nil {
			t.Fatal(err)
		}
		return c.Region(RegionB)
	}

	unpacked := classify(true)
	packed := classify(false)
	if unpacked.Conflict < 10*maxI64(packed.Conflict, 1) {
		t.Fatalf("unpacked conflicts %d not dominating packed %d", unpacked.Conflict, packed.Conflict)
	}
	// Unpacked misses are mostly conflicts (the strip working set fits
	// the capacity, it just aliases).
	if unpacked.Conflict < unpacked.Capacity {
		t.Fatalf("unpacked misses should be conflict-dominated: %+v", unpacked)
	}
	t.Logf("B misses at L2 — unpacked: %+v | packed: %+v", unpacked, packed)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
