package ooc_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
)

// randTensor builds a deterministic random tensor with a sprinkling of
// exact duplicate coordinates (ReadTNS preserves duplicates as
// separate entries; the staged path must too).
func randTensor(seed int64, dims []int, nnz int) *nmode.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := nmode.NewTensor(dims, nnz)
	coords := make([]nmode.Index, len(dims))
	for p := 0; p < nnz; p++ {
		if p > 0 && rng.Intn(16) == 0 {
			q := rng.Intn(p)
			t.Append(t.Coord(q, coords), rng.NormFloat64())
			continue
		}
		for m, d := range dims {
			coords[m] = nmode.Index(rng.Intn(d))
		}
		t.Append(coords, rng.NormFloat64())
	}
	return t
}

// stageTensor writes t to a .tns file and stages it, returning the
// staging dir and manifest.
func stageTensor(t *testing.T, x *nmode.Tensor, grid []int) (string, *ooc.Manifest) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "in.tns")
	if err := nmode.SaveTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, "staged")
	man, err := ooc.Stage(path, stage, ooc.StageOptions{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	return stage, man
}

func TestStageManifestMatchesBuildBlocked(t *testing.T) {
	x := randTensor(1, []int{17, 13, 11}, 600)
	grid := []int{3, 2, 2}
	_, man := stageTensor(t, x, grid)

	if man.NNZ != int64(x.NNZ()) {
		t.Fatalf("staged nnz %d, want %d", man.NNZ, x.NNZ())
	}
	var normSq float64
	for _, v := range x.Val {
		normSq += v * v
	}
	if man.NormSq != normSq {
		t.Fatalf("staged normSq %v, want %v", man.NormSq, normSq)
	}
	bt, err := nmode.BuildBlocked(x, grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{}
	for id, blk := range bt.Blocks {
		if blk != nil {
			want[id] = blk.NNZ()
		}
	}
	if len(man.Blocks) != len(want) {
		t.Fatalf("staged %d blocks, want %d", len(man.Blocks), len(want))
	}
	prev := -1
	for _, b := range man.Blocks {
		if b.ID <= prev {
			t.Fatalf("block ids not ascending: %d after %d", b.ID, prev)
		}
		prev = b.ID
		if want[b.ID] != b.NNZ {
			t.Fatalf("block %d staged %d nnz, want %d", b.ID, b.NNZ, want[b.ID])
		}
	}
}

// TestStreamedMTTKRPBitIdentical pins the tentpole contract: the
// streamed product equals the in-memory blocked executor bit for bit,
// for every mode, at several working-set budgets, for order 3 and 4.
func TestStreamedMTTKRPBitIdentical(t *testing.T) {
	cases := []struct {
		dims []int
		grid []int
		nnz  int
	}{
		{[]int{17, 13, 11}, []int{3, 2, 2}, 700},
		{[]int{9, 14, 7, 10}, []int{2, 3, 2, 2}, 500},
	}
	const rank = 9
	for _, tc := range cases {
		x := randTensor(7, tc.dims, tc.nnz)
		stage, man := stageTensor(t, x, tc.grid)
		budgets := []int64{
			0, // minimum pipeline
			man.SlotBytes() + 1,
			man.TotalBlockBytes() / 4,
			man.TotalBlockBytes() * 2,
		}
		factors := make([]*la.Matrix, len(tc.dims))
		for m, d := range tc.dims {
			factors[m] = la.NewMatrix(d, rank)
			rng := rand.New(rand.NewSource(int64(100 + m)))
			for i := range factors[m].Data {
				factors[m].Data[i] = rng.NormFloat64()
			}
		}
		for mode := range tc.dims {
			ex, err := nmode.NewExecutor(x, mode, nmode.Options{Grid: tc.grid, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := la.NewMatrix(tc.dims[mode], rank)
			if err := ex.Run(factors, want); err != nil {
				t.Fatal(err)
			}
			for _, budget := range budgets {
				for _, decoders := range []int{1, 3} {
					e, err := ooc.Open(stage, ooc.Options{BudgetBytes: budget, Decoders: decoders})
					if err != nil {
						t.Fatal(err)
					}
					got := la.NewMatrix(tc.dims[mode], rank)
					if err := e.MTTKRP(mode, factors, got); err != nil {
						t.Fatal(err)
					}
					for i, v := range want.Data {
						if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
							t.Fatalf("order-%d mode %d budget %d (depth %d): element %d differs: %v vs %v",
								len(tc.dims), mode, budget, e.Depth(), i, got.Data[i], v)
						}
					}
					snap := e.Metrics(mode).Snapshot()
					if snap.Runs != 1 || snap.NNZ != int64(x.NNZ()) {
						t.Fatalf("metrics wrong: %+v", snap)
					}
					if snap.PrefetchTotalNS() <= 0 {
						t.Fatal("no prefetch busy time recorded")
					}
					e.Close()
				}
			}
		}
	}
}

// TestStagedWithoutDimsComment exercises the two-pass staging path:
// dims derived from max coordinates, exactly as ReadTNS derives them.
func TestStagedWithoutDimsComment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.tns")
	body := "1 2 3 1.5\n4 5 1 -2\n2 2 2 0.25\n4 1 6 1\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := ooc.Stage(path, filepath.Join(dir, "staged"), ooc.StageOptions{Grid: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := nmode.ReadTNS(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for m := range want.Dims {
		if man.Dims[m] != want.Dims[m] {
			t.Fatalf("derived dims %v, want %v", man.Dims, want.Dims)
		}
	}
	if man.NNZ != int64(want.NNZ()) {
		t.Fatalf("nnz %d, want %d", man.NNZ, want.NNZ())
	}
}

// TestStageSpill forces the in-memory partition buffers to spill many
// times and checks the staged result is unchanged.
func TestStageSpill(t *testing.T) {
	x := randTensor(3, []int{12, 10, 8}, 400)
	dir := t.TempDir()
	path := filepath.Join(dir, "in.tns")
	if err := nmode.SaveTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	grid := []int{2, 2, 2}
	big, err := ooc.Stage(path, filepath.Join(dir, "a"), ooc.StageOptions{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	// BufferBytes of 1: every add flushes.
	small, err := ooc.Stage(path, filepath.Join(dir, "b"), ooc.StageOptions{Grid: grid, BufferBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", big.Blocks) != fmt.Sprintf("%+v", small.Blocks) {
		t.Fatalf("spilled staging differs:\n%+v\n%+v", big.Blocks, small.Blocks)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "a", "blocks.dat"))
	b, _ := os.ReadFile(filepath.Join(dir, "b", "blocks.dat"))
	if string(a) != string(b) {
		t.Fatal("spilled blocks.dat differs from buffered staging")
	}
	// Spill files are cleaned up.
	ents, err := os.ReadDir(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "spill-") {
			t.Fatalf("leftover spill file %s", ent.Name())
		}
	}
}

func TestStageEmptyWithDims(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.tns")
	if err := os.WriteFile(path, []byte("# dims: 6 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := ooc.Stage(path, filepath.Join(dir, "staged"), ooc.StageOptions{Grid: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if man.NNZ != 0 || len(man.Blocks) != 0 {
		t.Fatalf("empty stage wrong: %+v", man)
	}
	e, err := ooc.Open(filepath.Join(dir, "staged"), ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out := la.NewMatrix(6, 4)
	factors := []*la.Matrix{nil, la.NewMatrix(5, 4)}
	if err := e.MTTKRP(0, factors, out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty tensor product must be zero")
		}
	}
}

func TestStageErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		path string
		opts ooc.StageOptions
	}{
		{"empty no dims", write("a.tns", "# nothing\n"), ooc.StageOptions{}},
		{"grid order mismatch", write("b.tns", "1 1 1 1\n"), ooc.StageOptions{Grid: []int{2, 2}}},
		{"coord above declared dim", write("c.tns", "# dims: 2 2 2\n3 1 1 1\n"), ooc.StageOptions{}},
		{"dims comment mismatch", write("d.tns", "# dims: 2 2\n1 1 1 1\n"), ooc.StageOptions{}},
		{"late dims comment mismatch", write("e.tns", "1 1 1 1\n# dims: 2 2\n"), ooc.StageOptions{}},
		{"parse error", write("f.tns", "1 1 x 1\n"), ooc.StageOptions{}},
	}
	for _, tc := range cases {
		if _, err := ooc.Stage(tc.path, filepath.Join(dir, "out"), tc.opts); err == nil {
			t.Errorf("%s: staged successfully", tc.name)
		}
	}
	if _, err := ooc.Stage(filepath.Join(dir, "missing.tns"), dir, ooc.StageOptions{}); err == nil {
		t.Error("missing input staged successfully")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := ooc.Open(t.TempDir(), ooc.Options{}); err == nil {
		t.Fatal("opened an unstaged directory")
	}
	x := randTensor(5, []int{8, 8, 8}, 100)
	stage, _ := stageTensor(t, x, []int{2, 2, 2})
	if _, err := ooc.Open(stage, ooc.Options{Decoders: -1}); err == nil {
		t.Fatal("negative decoders accepted")
	}
	if _, err := ooc.Open(stage, ooc.Options{BudgetBytes: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	// Truncated payload must be rejected at open.
	data, err := os.ReadFile(filepath.Join(stage, "blocks.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "blocks.dat"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ooc.Open(stage, ooc.Options{}); err == nil {
		t.Fatal("opened truncated blocks.dat")
	}
}

func TestMTTKRPOperandErrors(t *testing.T) {
	x := randTensor(6, []int{8, 7, 6}, 150)
	stage, _ := stageTensor(t, x, []int{2, 2, 2})
	e, err := ooc.Open(stage, ooc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := 4
	good := []*la.Matrix{la.NewMatrix(8, r), la.NewMatrix(7, r), la.NewMatrix(6, r)}
	out := la.NewMatrix(8, r)
	if err := e.MTTKRP(3, good, out); err == nil {
		t.Fatal("mode out of range accepted")
	}
	if err := e.MTTKRP(0, good[:2], out); err == nil {
		t.Fatal("short factor list accepted")
	}
	if err := e.MTTKRP(0, []*la.Matrix{nil, nil, good[2]}, out); err == nil {
		t.Fatal("missing factor accepted")
	}
	if err := e.MTTKRP(0, good, la.NewMatrix(5, r)); err == nil {
		t.Fatal("wrong-shape output accepted")
	}
	if err := e.MTTKRP(0, []*la.Matrix{nil, la.NewMatrix(7, r+1), good[2]}, out); err == nil {
		t.Fatal("rank-mismatched factor accepted")
	}
}

// faultSource injects a read failure on one block to exercise the
// pipeline's error drain: the run must return the error promptly with
// no goroutine leak or hang, and the engine must stay usable.
type faultSource struct {
	ooc.BlockSource
	failID int
}

func (s *faultSource) ReadBlock(b ooc.BlockInfo, dst []byte) error {
	if b.ID == s.failID {
		return fmt.Errorf("injected read failure on block %d", b.ID)
	}
	return s.BlockSource.ReadBlock(b, dst)
}

func TestDecodeFailureDrainsPipeline(t *testing.T) {
	x := randTensor(8, []int{12, 11, 10}, 500)
	stage, man := stageTensor(t, x, []int{3, 2, 2})
	src, err := ooc.OpenSource(stage)
	if err != nil {
		t.Fatal(err)
	}
	failID := man.Blocks[len(man.Blocks)/2].ID
	e, err := ooc.NewEngine(&faultSource{BlockSource: src, failID: failID}, ooc.Options{Decoders: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := 5
	factors := []*la.Matrix{nil, la.NewMatrix(11, r), la.NewMatrix(10, r)}
	out := la.NewMatrix(12, r)
	if err := e.MTTKRP(0, factors, out); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// A later product over a healthy source path must not be poisoned
	// by the failed run's state.
	healthy, err := ooc.Open(stage, ooc.Options{Decoders: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	for m := range factors {
		factors[m] = la.NewMatrix(x.Dims[m], r)
	}
	if err := healthy.MTTKRP(0, factors, out); err != nil {
		t.Fatal(err)
	}
}

// delayedSource stalls the read of one block, so the decoders finish
// later blocks first and the consumer must hold them until the slow
// block arrives.
type delayedSource struct {
	ooc.BlockSource
	slowID int
	delay  time.Duration
}

func (s *delayedSource) ReadBlock(b ooc.BlockInfo, dst []byte) error {
	if b.ID == s.slowID {
		time.Sleep(s.delay)
	}
	return s.BlockSource.ReadBlock(b, dst)
}

// TestDelayedBlockKeepsBlockOrder is the regression test for the
// pipeline walking blocks out of order: when a decoder claimed a block
// index before it held a slot, a later block could take the ring
// position of an earlier one and be walked in its place. Hundreds of
// tiny blocks through a three-slot ring, one early block delayed,
// repeated many times, reproduce that race on any multi-core run; every
// product must stay bit-identical to the in-memory blocked executor.
func TestDelayedBlockKeepsBlockOrder(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The race needs two decoders running at once.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	dims := []int{32, 32, 32}
	grid := []int{8, 8, 8}
	x := randTensor(21, dims, 1500)
	stage, man := stageTensor(t, x, grid)
	const rank = 4
	factors := make([]*la.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = la.NewMatrix(d, rank)
		rng := rand.New(rand.NewSource(int64(m)))
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.NormFloat64()
		}
	}
	ex, err := nmode.NewExecutor(x, 0, nmode.Options{Grid: grid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := la.NewMatrix(dims[0], rank)
	if err := ex.Run(factors, want); err != nil {
		t.Fatal(err)
	}
	src, err := ooc.OpenSource(stage)
	if err != nil {
		t.Fatal(err)
	}
	slow := &delayedSource{BlockSource: src, slowID: man.Blocks[1].ID, delay: 50 * time.Microsecond}
	e, err := ooc.NewEngine(slow, ooc.Options{BudgetBytes: 3 * man.SlotBytes(), Decoders: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Depth() != 3 || e.Decoders() != 3 {
		t.Fatalf("pipeline depth %d with %d decoders, want 3 and 3", e.Depth(), e.Decoders())
	}
	got := la.NewMatrix(dims[0], rank)
	for run := 0; run < 500; run++ {
		if err := e.MTTKRP(0, factors, got); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, v := range want.Data {
			if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
				t.Fatalf("run %d: element %d differs: %v vs %v", run, i, got.Data[i], v)
			}
		}
	}
}

// TestReadFailureSettlesGoroutines: a read that fails at block k
// mid-stream makes MTTKRP return that error, every decoder goroutine
// the run started exits (runtime.NumGoroutine settles back to its
// pre-run count), and the next product on the same engine, its source
// healthy again, is bit-identical to a fresh engine's.
func TestReadFailureSettlesGoroutines(t *testing.T) {
	x := randTensor(9, []int{12, 11, 10}, 500)
	stage, man := stageTensor(t, x, []int{3, 2, 2})
	const r = 5
	factors := make([]*la.Matrix, 3)
	for m, d := range x.Dims {
		factors[m] = la.NewMatrix(d, r)
		rng := rand.New(rand.NewSource(int64(m + 1)))
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.NormFloat64()
		}
	}
	ref, err := ooc.Open(stage, ooc.Options{Decoders: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := la.NewMatrix(x.Dims[0], r)
	if err := ref.MTTKRP(0, factors, want); err != nil {
		t.Fatal(err)
	}
	nb := len(man.Blocks)
	for _, k := range []int{0, nb / 2, nb - 1} {
		for _, dec := range []int{1, 3} {
			src, err := ooc.OpenSource(stage)
			if err != nil {
				t.Fatal(err)
			}
			id := man.Blocks[k].ID
			fs := &faultSource{BlockSource: src, failID: id}
			e, err := ooc.NewEngine(fs, ooc.Options{Decoders: dec})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			out := la.NewMatrix(x.Dims[0], r)
			err = e.MTTKRP(0, factors, out)
			if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("injected read failure on block %d", id)) {
				t.Fatalf("k=%d decoders=%d: err = %v, want the injected failure", k, dec, err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("k=%d decoders=%d: %d goroutines after the failed run, %d before", k, dec, n, before)
			}
			fs.failID = -1 // between runs: no decoder is reading it
			if err := e.MTTKRP(0, factors, out); err != nil {
				t.Fatalf("k=%d decoders=%d: product after the failure: %v", k, dec, err)
			}
			for i, v := range want.Data {
				if math.Float64bits(v) != math.Float64bits(out.Data[i]) {
					t.Fatalf("k=%d decoders=%d: element %d after the failure is %v, want %v", k, dec, i, out.Data[i], v)
				}
			}
			e.Close()
		}
	}
}
