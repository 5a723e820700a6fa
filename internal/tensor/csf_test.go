package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spblock/internal/analysis/check"
	"spblock/internal/nmode"
)

// buildCSF builds the SPLATT tree of x (Figure 1b).
func buildCSF(x *nmode.Tensor) (*nmode.CSF, error) { return nmode.Build(x, SPLATTModeOrder()) }

func TestBuildCSFEmpty(t *testing.T) {
	c := nmode.NewTensor([]int{4, 4, 4}, 0)
	csf, err := buildCSF(c)
	if err != nil {
		t.Fatal(err)
	}
	if csf.NNZ() != 0 || csf.NumNodes(1) != 0 || csf.NumNodes(0) != 0 {
		t.Fatal("empty CSF has phantom content")
	}
	if err := csf.Validate(); err != nil {
		t.Fatal(err)
	}
	back := csf.ToTensor()
	if back.NNZ() != 0 {
		t.Fatal("empty round trip failed")
	}
}

func TestBuildCSFRejectsInvalid(t *testing.T) {
	bad := nmode.NewTensor([]int{2, 2, 2}, 0)
	add(bad, 5, 0, 0, 1)
	if _, err := buildCSF(bad); err == nil {
		t.Fatal("BuildCSF accepted out-of-range tensor")
	}
}

func TestBuildCSFDoesNotMutateInput(t *testing.T) {
	c := nmode.NewTensor([]int{3, 3, 3}, 0)
	add(c, 2, 2, 2, 1)
	add(c, 0, 0, 0, 2) // unsorted on purpose
	wasSorted := fiberSorted(c)
	if wasSorted {
		t.Fatal("test setup: input should be unsorted")
	}
	if _, err := buildCSF(c); err != nil {
		t.Fatal(err)
	}
	if fiberSorted(c) {
		t.Fatal("BuildCSF sorted the caller's tensor in place")
	}
}

func TestCSFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nnz := range []int{1, 2, 17, 300} {
		c := randomCOO(rng, []int{7, 8, 9}, nnz)
		Dedup(c)
		csf, err := buildCSF(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := csf.Validate(); err != nil {
			t.Fatalf("nnz=%d: %v", nnz, err)
		}
		back := csf.ToTensor()
		if !sameMultiset(entryMultiset(c), entryMultiset(back)) {
			t.Fatalf("nnz=%d: round trip changed entries", nnz)
		}
		if !fiberSorted(back) {
			t.Fatal("ToTensor output not fiber sorted")
		}
	}
}

func TestCSFCountsMatchCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := randomCOO(rng, []int{10, 10, 10}, 400)
	Dedup(c)
	csf, err := buildCSF(c)
	if err != nil {
		t.Fatal(err)
	}
	if csf.NNZ() != c.NNZ() {
		t.Fatalf("nnz %d != %d", csf.NNZ(), c.NNZ())
	}
	if csf.NumNodes(1) != stats(t, c).Fibers {
		t.Fatalf("fibers %d != %d", csf.NumNodes(1), stats(t, c).Fibers)
	}
	// Slice count equals distinct i values.
	seen := map[nmode.Index]bool{}
	for _, i := range c.Idx[0] {
		seen[i] = true
	}
	if csf.NumNodes(0) != len(seen) {
		t.Fatalf("slices %d != %d", csf.NumNodes(0), len(seen))
	}
}

func TestCSFMemoryModels(t *testing.T) {
	c := nmode.NewTensor([]int{3, 3, 3}, 7)
	add(c, 0, 0, 0, 5)
	add(c, 0, 1, 1, 3)
	add(c, 0, 1, 2, 1)
	add(c, 1, 0, 2, 2)
	add(c, 1, 1, 1, 9)
	add(c, 1, 2, 2, 7)
	add(c, 2, 0, 0, 9)
	csf, err := buildCSF(c)
	if err != nil {
		t.Fatal(err)
	}
	// Paper model: 16 + 8*3 + 16*6 + 16*7 = 248.
	if got := stats(t, c).SPLATTBytes; got != 248 {
		t.Fatalf("SPLATTBytes = %d, want 248", got)
	}
	// Actual: 4*(3 slices + 4 sliceptr + 6 fiberK + 7 fiberptr + 7 nzJ) + 8*7 = 4*27+56 = 164.
	if got := csf.MemoryBytes(); got != 164 {
		t.Fatalf("MemoryBytes = %d, want 164", got)
	}
	// COO paper model for comparison: 32*7 = 224 > SPLATT in fiber-rich data.
	if stats(t, c).COOBytes != 224 {
		t.Fatal("COO byte model wrong")
	}
}

// The SPLATT tree's full invariants — sorted ids, no empty slice or
// fiber, in-range ids, spanning pointers — are the deep structure
// oracle's; nmode's Validate checks the shallow subset.
func TestCSFValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fresh := func() *nmode.CSF {
		c := randomCOO(rng, []int{5, 5, 5}, 60)
		Dedup(c)
		csf, err := buildCSF(c)
		if err != nil {
			t.Fatal(err)
		}
		return csf
	}
	valid := func(c *nmode.CSF) error {
		return check.Tree(c.Dims, c.ModeOrder, c.ID, c.Ptr, len(c.Val))
	}
	if err := valid(fresh()); err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		mut  func(c *nmode.CSF)
	}{
		{"slice id out of range", func(c *nmode.CSF) { c.ID[0][0] = 99 }},
		{"slice ids out of order", func(c *nmode.CSF) {
			if len(c.ID[0]) > 1 {
				c.ID[0][1] = c.ID[0][0]
			} else {
				c.ID[0][0] = -1
			}
		}},
		{"fiber k out of range", func(c *nmode.CSF) { c.ID[1][0] = -3 }},
		{"j out of range", func(c *nmode.CSF) { c.ID[2][0] = 99 }},
		{"slice pointers broken", func(c *nmode.CSF) { c.Ptr[0][0] = 1 }},
		{"fiber pointers broken", func(c *nmode.CSF) { c.Ptr[1][len(c.Ptr[1])-1]++ }},
		{"ragged val", func(c *nmode.CSF) { c.Val = c.Val[:len(c.Val)-1] }},
	}
	for _, tc := range corruptions {
		csf := fresh()
		tc.mut(csf)
		if err := valid(csf); err == nil {
			t.Fatalf("%s: accepted corrupted structure", tc.name)
		}
	}
}

// The average fiber length, nnz / fibers, controls how much work the
// SPLATT format saves over COO (Sec. III-C).
func TestAvgFiberLength(t *testing.T) {
	c := nmode.NewTensor([]int{2, 4, 2}, 0)
	// One fiber with 4 nonzeros, one with 2.
	for j := 0; j < 4; j++ {
		add(c, 0, nmode.Index(j), 0, 1)
	}
	add(c, 1, 0, 1, 1)
	add(c, 1, 1, 1, 1)
	if got := stats(t, c).AvgFiberLength; got != 3 {
		t.Fatalf("AvgFiberLength = %v, want 3", got)
	}
	if got := stats(t, nmode.NewTensor([]int{1, 1, 1}, 0)).AvgFiberLength; got != 0 {
		t.Fatalf("empty AvgFiberLength = %v, want 0", got)
	}
}

// Property: COO -> CSF -> COO round-trips the entry multiset and the
// CSF always validates, for arbitrary deduped tensors.
func TestQuickCSFRoundTrip(t *testing.T) {
	f := func(seed int64, di, dj, dk uint8, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{int(di%9) + 1, int(dj%9) + 1, int(dk%9) + 1}
		c := randomCOO(rng, dims, int(n%400))
		Dedup(c)
		csf, err := buildCSF(c)
		if err != nil {
			return false
		}
		if csf.Validate() != nil {
			return false
		}
		if csf.NumNodes(1) != stats(t, c).Fibers || csf.NNZ() != c.NNZ() {
			return false
		}
		return sameMultiset(entryMultiset(c), entryMultiset(csf.ToTensor()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BuildCSF is the SPLATT-ordered nmode tree: on a shuffled deduplicated
// tensor it must list the entries in exactly the fiber order
// sortFiberOrder produces, with every array exactly sized, whether or
// not the input arrives already sorted.
func TestBuildCSFFiberOrderExactlySized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, nnz := range []int{0, 1, 40, 6000} {
		sorted := randomCOO(rng, []int{20, 30, 25}, nnz)
		Dedup(sorted)
		shuffled := sorted.Clone()
		rng.Shuffle(shuffled.NNZ(), func(a, b int) {
			for _, idx := range shuffled.Idx {
				idx[a], idx[b] = idx[b], idx[a]
			}
			shuffled.Val[a], shuffled.Val[b] = shuffled.Val[b], shuffled.Val[a]
		})
		for _, in := range []*nmode.Tensor{sorted, shuffled} {
			csf, err := buildCSF(in)
			if err != nil {
				t.Fatal(err)
			}
			back := csf.ToTensor()
			for p := 0; p < sorted.NNZ(); p++ {
				if entryAt(back, p) != entryAt(sorted, p) {
					t.Fatalf("nnz %d: entry %d out of fiber order", nnz, p)
				}
			}
			for name, n := range map[string][2]int{
				"slice ids":      {len(csf.ID[0]), cap(csf.ID[0])},
				"slice pointers": {len(csf.Ptr[0]), cap(csf.Ptr[0])},
				"fiber ids":      {len(csf.ID[1]), cap(csf.ID[1])},
				"fiber pointers": {len(csf.Ptr[1]), cap(csf.Ptr[1])},
				"leaf ids":       {len(csf.ID[2]), cap(csf.ID[2])},
				"values":         {len(csf.Val), cap(csf.Val)},
			} {
				if n[0] != n[1] {
					t.Fatalf("nnz %d: %s len %d cap %d", nnz, name, n[0], n[1])
				}
			}
		}
	}
}
