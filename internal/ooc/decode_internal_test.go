package ooc

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"spblock/internal/nmode"
)

// TestDecodedSlotMatchesInMemoryBlock pins the shared-builder claim of
// DESIGN.md §14.4: for every mode and every staged block, the tree a
// slot decodes equals, field for field and bit for bit, the block
// nmode.BuildBlocked builds in memory under the same id.
func TestDecodedSlotMatchesInMemoryBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{11, 9, 7, 6}
	grid := []int{3, 2, 2, 3}
	x := nmode.NewTensor(dims, 600)
	coords := make([]nmode.Index, len(dims))
	for p := 0; p < 600; p++ {
		if p > 0 && rng.Intn(8) == 0 {
			x.Append(x.Coord(rng.Intn(p), coords), rng.NormFloat64())
			continue
		}
		for m, d := range dims {
			coords[m] = nmode.Index(rng.Intn(d))
		}
		x.Append(coords, rng.NormFloat64())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "in.tns")
	if err := nmode.SaveTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	// Reload so both sides see the values the text format round-trips.
	x, err := nmode.LoadTNSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, "staged")
	if _, err := Stage(path, stage, StageOptions{Grid: grid}); err != nil {
		t.Fatal(err)
	}
	e, err := Open(stage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	slot := <-e.freec
	for mode := range dims {
		bt, err := nmode.BuildBlocked(x, grid, nmode.DefaultModeOrder(dims, mode))
		if err != nil {
			t.Fatal(err)
		}
		e.mode = mode
		for i, info := range e.man.Blocks {
			if err := e.decode(slot, i); err != nil {
				t.Fatal(err)
			}
			want := bt.Blocks[info.ID]
			if want == nil {
				t.Fatalf("mode %d: staged block %d is empty in memory", mode, info.ID)
			}
			got := &slot.csf
			if !slices.Equal(got.Dims, want.Dims) || !slices.Equal(got.ModeOrder, want.ModeOrder) {
				t.Fatalf("mode %d block %d: dims/mode order differ", mode, info.ID)
			}
			for d := range want.ID {
				if !slices.Equal(got.ID[d], want.ID[d]) {
					t.Fatalf("mode %d block %d: level %d ids differ", mode, info.ID, d)
				}
			}
			for d := range want.Ptr {
				if !slices.Equal(got.Ptr[d], want.Ptr[d]) {
					t.Fatalf("mode %d block %d: level %d pointers differ", mode, info.ID, d)
				}
			}
			if len(got.Val) != len(want.Val) {
				t.Fatalf("mode %d block %d: %d values, want %d", mode, info.ID, len(got.Val), len(want.Val))
			}
			for p := range want.Val {
				if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
					t.Fatalf("mode %d block %d: value %d differs", mode, info.ID, p)
				}
			}
		}
	}
}
