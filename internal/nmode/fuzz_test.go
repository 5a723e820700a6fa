package nmode

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spblock/internal/la"
)

// FuzzReadTNS drives the order-N text parser with arbitrary inputs: it
// must never panic and must agree with referenceReadTNS, the
// strings.Fields/strconv parser it replaced, on the accept/reject
// decision, the error text, the dims and every coordinate and value
// bit. So must the parse pipeline at 1 to 4 workers on blocks of a few
// bytes and of 16 to 128 bytes, both taken a block at a time (readTNS)
// and a nonzero at a time (TNSStream.Next); whatever it accepts must
// validate and round-trip through WriteTNS, and Dedup must merge its duplicates exactly as the
// input-order map oracle, in the natural mode order and in the fiber
// order (0, N−1, …, 1), which at order 3 is the SPLATT order (0, 2, 1).
func FuzzReadTNS(f *testing.F) {
	seeds := []string{
		"1 1 1 5.0\n",
		"1 1 1 1 1 5.0\n",
		"# dims: 3 3 3 3\n1 2 3 1 -1e4\n2 2 2 2 0.5\n",
		"# comment\n\n10 1 1 1\n",
		"1 1 2\n1 2 3\n",
		"1 1 1 1\n1 1 2\n",
		"9999999 1 1\n",
		"1 1 nan\n",
		"a b c d\n",
		"# dims: 0 0\n",
		"1 1 1e309\n",
		// Separators: tabs, \v, \f, CRLF line ends, a lone \r.
		"1\t2\t3\t0.5\r\n2\v1\f1 -2\r\n",
		"  1 1 1 1  \r\n\r\n\t# note\r\n3 3 3 3\r",
		"1 1\r1 1\n",
		// Unicode separators (U+00A0, U+2000, U+0085) and non-space
		// UTF-8 or invalid bytes inside a field.
		"1\u00a02\u00a03\u00a04\n",
		"1\u20002 3\u2000\u20004.5\n\u0085# c\n",
		"1 1 1 4\u00e9\n",
		"1 1 \u00e91 4\n",
		"1 1 1 \xff\n",
		"\xc2 1 1 1\n",
		"# dims:\u00a02 2 2\n1 1 1 1\n",
		// Coordinates strconv parses but the digit path does not, and
		// the int32 boundary at 10 and 11 digits.
		"+1 1 1 1\n0001 2 1 1\n",
		"-1 1 1 1\n",
		"2147483647 1 1 1\n",
		"2147483648 1 1 1\n",
		"1 1 1 1\n2147483647 1 1 2\n1 1 1 3\n",
		"9999999999 1 1 1\n",
		"10000000000 1 1 1\n",
		"99999999999999999999 1 1 1\n",
		"0 1 1 1\n",
		"1_0 1 1 1\n",
		// Values off the digit path: underscores, hex floats, signed
		// zero, infinities, and integers around 2^53 at 15-17 digits.
		"1 1 1 1_0\n",
		"1 1 1 0x1p-2\n",
		"1 1 1 -0\n2 2 2 +0\n",
		"1 1 1 inf\n2 2 2 -Inf\n3 3 3 NaN\n",
		"1 1 1 999999999999999\n2 2 2 1000000000000000\n",
		"1 1 1 9007199254740991\n2 2 2 9007199254740993\n",
		"1 1 1 90071992547409935\n2 2 2 18014398509481985\n",
		"1 1 1 000000000000000000001\n2 2 2 0\n",
		"1 1 1 1e\n",
		"1 1 1 .5\n2 2 2 5.\n3 3 3 1e-400\n",
		// Block boundaries at the fuzzed block sizes of 3 to 6 bytes:
		// CRLF pairs split across reads, a line longer than a block, a
		// bad field in the second and third blocks, an order conflict
		// on a block's first data line, "# dims:" comments after the
		// first block, and a final line without '\n'.
		"1 1 1\r\n2 2 2\r\n3 3 3\r\n",
		"1 1 1 1\r\n\r\n22 2 2 2\r",
		"12345 23456 34567 0.0001220703125\n1 1 1 1\n",
		"1 1 1\n2 2 x\n3 y 3\n",
		"1 1 1\n2 2 2\n3 3 3 z\n",
		"1 1 1\n1 1 1 1\n",
		"1 1 1\n# c\n1 1 1 1\n2 2 2\n",
		"1 1 1 1\n2 2 2 2\n# dims: 3 3 3\n",
		"# dims: 3\n1 1 1\n# dims: 2\n2 2 2\n",
		"# dims: 2 2\n1 1 1\n# dims: x\n",
		"1 1 1\n\n\n\n\n\n\n\n\n\n\n\n2 2 2",
		// Blocks mostly of blank or comment lines, whose chunks are
		// sized for fewer nonzeros than lines.
		"1 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n\n\n\n\n\n\n",
		"1 2 3\n\n4 5 6\n\n7 8 9\n\n1 2 3\n\n4 5 6\n\n7 8 9\n\n",
		"1 1 1\n# a\n# b\n# c\n# d\n# e\n2 2 2\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadTNS(strings.NewReader(input))
		ref, rerr := referenceReadTNS(strings.NewReader(input))
		if err := sameParse(c, err, ref, rerr); err != nil {
			t.Fatalf("ReadTNS differs from the reference parser: %v", err)
		}
		for w := 1; w <= 4; w++ {
			for _, block := range []int{2 + w, 8 << w} {
				p, perr := readTNS(strings.NewReader(input), w, block)
				if err := sameParse(p, perr, ref, rerr); err != nil {
					t.Fatalf("readTNS at %d workers, %d-byte blocks differs from the reference parser: %v", w, block, err)
				}
				p, perr = streamReadTNS(strings.NewReader(input), w, block)
				if err := sameParse(p, perr, ref, rerr); err != nil {
					t.Fatalf("TNSStream at %d workers, %d-byte blocks differs from the reference parser: %v", w, block, err)
				}
			}
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted tensor fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTNS(&buf, c); err != nil {
			t.Fatalf("cannot re-serialise accepted tensor: %v", err)
		}
		back, err := ReadTNS(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted tensor failed: %v", err)
		}
		if back.NNZ() != c.NNZ() || !slices.Equal(back.Dims, c.Dims) {
			t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
				back.Dims, back.NNZ(), c.Dims, c.NNZ())
		}
		want := dedupOracle(c)
		fiber := []int{0}
		for m := c.Order() - 1; m > 0; m-- {
			fiber = append(fiber, m)
		}
		for _, order := range [][]int{nil, fiber} {
			d := c.Clone()
			if _, err := d.Dedup(order...); err != nil {
				t.Fatalf("Dedup(%v): %v", order, err)
			}
			if err := checkDedup(d, order, want); err != nil {
				t.Fatalf("Dedup(%v): %v", order, err)
			}
		}
	})
}

// dedupOracle sums each coordinate's values left to right in input
// order, the order Dedup must merge duplicates in.
func dedupOracle(t *Tensor) map[string]float64 {
	sums := make(map[string]float64, t.NNZ())
	for p := 0; p < t.NNZ(); p++ {
		key := fmt.Sprint(t.Coord(p, nil))
		if s, ok := sums[key]; ok {
			sums[key] = s + t.Val[p]
		} else {
			sums[key] = t.Val[p]
		}
	}
	return sums
}

// checkDedup reports whether t holds exactly want's coordinates in
// strictly increasing order by the mode order (nil: natural), each
// with want's value bits.
func checkDedup(t *Tensor, order []int, want map[string]float64) error {
	if t.NNZ() != len(want) {
		return fmt.Errorf("nnz = %d, want %d distinct coordinates", t.NNZ(), len(want))
	}
	if order == nil {
		order = make([]int, t.Order())
		for m := range order {
			order[m] = m
		}
	}
	ordered := func(p int) []Index {
		key := make([]Index, len(order))
		for d, m := range order {
			key[d] = t.Idx[m][p]
		}
		return key
	}
	for p := 0; p < t.NNZ(); p++ {
		if p > 0 && slices.Compare(ordered(p-1), ordered(p)) >= 0 {
			return fmt.Errorf("entries %d and %d out of order %v: %v, %v", p-1, p, order, ordered(p-1), ordered(p))
		}
		key := fmt.Sprint(t.Coord(p, nil))
		if got := t.Val[p]; math.Float64bits(got) != math.Float64bits(want[key]) {
			return fmt.Errorf("entry %s = %v, want the input-order sum %v", key, got, want[key])
		}
	}
	return nil
}

// FuzzCSFBuild decodes an arbitrary byte string into a small sparse
// tensor and a blocking grid, builds the CSF tree and the blocked
// layout from them, and checks the results: the spblockcheck structure
// oracle, the tree against the sort.SliceStable oracle, and every block
// against Build over that block's nonzeros. Every build path in the
// module (Build, BuildBlocked, out-of-core slots and memo) goes
// through the one Builder this exercises.
func FuzzCSFBuild(f *testing.F) {
	f.Add([]byte{3, 4, 5, 6, 0, 1, 2, 7, 3, 3, 3, 1, 1, 1}, []byte{1, 2, 3})
	f.Add([]byte{2, 1, 1, 0, 0}, []byte{})
	f.Add([]byte{4, 2, 2, 2, 2, 1, 2, 3, 0, 1, 2, 3, 0, 0, 1, 1}, []byte{1, 1, 1, 1})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, data, gridBytes []byte) {
		tsr := decodeTensor(data)
		if tsr == nil {
			return
		}
		if err := tsr.Validate(); err != nil {
			return // decodeTensor aims for valid tensors, but don't insist
		}
		// Each mode's grid is 1..dims[m] from gridBytes (cycled), or
		// min(2, dims[m]) when gridBytes is empty.
		grid := make([]int, tsr.Order())
		for m := range grid {
			grid[m] = min(2, tsr.Dims[m])
			if len(gridBytes) > 0 {
				grid[m] = 1 + int(gridBytes[m%len(gridBytes)])%tsr.Dims[m]
			}
		}
		for mode := 0; mode < tsr.Order(); mode++ {
			mo := DefaultModeOrder(tsr.Dims, mode)
			c, err := Build(tsr, mo)
			if err != nil {
				t.Fatalf("Build rejected a valid tensor: %v", err)
			}
			if err := validateTree(c); err != nil {
				t.Fatalf("mode %d: CSF violates structure invariants: %v", mode, err)
			}
			if err := sameTree(c, oracleTree(tsr, mo)); err != nil {
				t.Fatalf("mode %d: tree differs from the stable-sort oracle: %v", mode, err)
			}
			bt, err := BuildBlocked(tsr, grid, mo)
			if err != nil {
				t.Fatalf("BuildBlocked rejected a valid tensor: %v", err)
			}
			if err := validateBlocked(bt); err != nil {
				t.Fatalf("mode %d: blocked layout violates structure invariants: %v", mode, err)
			}
			if err := checkBlocksMatchBuild(tsr, bt); err != nil {
				t.Fatalf("mode %d grid %v: %v", mode, grid, err)
			}
		}
	})
}

// decodeTensor deterministically maps a byte string onto a small
// order-2..4 tensor: byte 0 picks the order, the next `order` bytes
// pick the dims (1..8), and each following (order+1)-byte group is one
// nonzero (coordinates folded into range, value from the last byte).
// Returns nil when the prefix is too short.
func decodeTensor(data []byte) *Tensor {
	if len(data) < 1 {
		return nil
	}
	order := 2 + int(data[0])%3
	data = data[1:]
	if len(data) < order {
		return nil
	}
	dims := make([]int, order)
	for m := 0; m < order; m++ {
		dims[m] = 1 + int(data[m])%8
	}
	data = data[order:]
	tsr := NewTensor(dims, len(data)/(order+1))
	coords := make([]Index, order)
	for len(data) >= order+1 {
		for m := 0; m < order; m++ {
			coords[m] = Index(int(data[m]) % dims[m])
		}
		v := float64(int8(data[order])) / 4
		tsr.Append(coords, v)
		data = data[order+1:]
	}
	return tsr
}

// FuzzRegisterWalk pins the register walk's short-fiber runs
// (kernel.KRPAxpyRun) to the accumulator body and to the exported
// Walker bit for bit. decodeWalkCase maps the bytes onto a small order-3
// or order-4 tensor with finite values, ±0 among them, a rank, a rank
// strip width and a grid; every mode's product must then agree across
// the register walk and the accumulator walk at 1 and 2 workers and
// the Walker over the same tree or blocks in block order. The seeds
// lay runs of 1 to 9 one-nonzero fibers under one parent, broken by
// fibers of 2 and 3 nonzeros.
func FuzzRegisterWalk(f *testing.F) {
	for _, order := range []int{3, 4} {
		for sel, lens := range [][]int{oneNonzeroRuns(), {1, 1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 3, 1, 1, 2, 1}} {
			f.Add(runSeed(order, byte(sel*3+order), byte(sel)<<1, lens))
		}
	}
	// A tiny order-3 tree holding −0 and +0 values.
	f.Add([]byte{0, 2, 5, 1, 3, 0, 0, 0, 0x80, 1, 0, 0, 7, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, rank, bs, grid := decodeWalkCase(data)
		if x == nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		factors := make([]*la.Matrix, x.Order())
		for m := range factors {
			factors[m] = specialMatrix(rng, x.Dims[m], rank, false)
		}
		for mode := range x.Dims {
			want := walkTrees(t, x, DefaultModeOrder(x.Dims, mode), grid, factors, rank)
			for _, alg := range []Algorithm{AlgRegister, AlgAccumulator} {
				for _, workers := range []int{1, 2} {
					opts := Options{Algorithm: alg, Workers: workers, RankBlockCols: bs, Grid: grid}
					assertSameBits(t, fmt.Sprintf("order %d dims %v mode %d rank %d %+v against the Walker",
						x.Order(), x.Dims, mode, rank, opts), runOpts(t, x, mode, opts, factors), want)
				}
			}
		}
	})
}

// decodeWalkCase maps a byte string onto a FuzzRegisterWalk case: byte
// 0 picks the order (3 or 4) and, bit m+1, which modes the grid halves
// (a mode of extent 1 stays whole);
// byte 1 the rank (1, 5, 16, 20 or 33) and the strip width (0, 8 or
// 16); the next `order` bytes the dims (1..12); and each following
// (order+1)-byte group one nonzero, up to 256 (coordinates folded into
// range, value from the last byte: 0x80 is −0, any other byte b is
// int8(b)/4, so 0 is +0). Duplicate coordinates are merged. Returns a
// nil tensor when the prefix is too short.
func decodeWalkCase(data []byte) (x *Tensor, rank, bs int, grid []int) {
	if len(data) < 2 {
		return nil, 0, 0, nil
	}
	head := data[0]
	order := 3 + int(head)%2
	rank = []int{1, 5, 16, 20, 33}[data[1]%5]
	bs = []int{0, 8, 16}[data[1]/5%3]
	data = data[2:]
	if len(data) < order {
		return nil, 0, 0, nil
	}
	dims := make([]int, order)
	for m := range dims {
		dims[m] = 1 + int(data[m])%12
	}
	grid = make([]int, order)
	for m := range grid {
		grid[m] = min(dims[m], 1+int(head>>(m+1)&1))
	}
	data = data[order:]
	x = NewTensor(dims, 0)
	coords := make([]Index, order)
	for ; len(data) >= order+1 && x.NNZ() < 256; data = data[order+1:] {
		for m := range coords {
			coords[m] = Index(int(data[m]) % dims[m])
		}
		v := float64(int8(data[order])) / 4
		if data[order] == 0x80 {
			v = math.Copysign(0, -1)
		}
		x.Append(coords, v)
	}
	if _, err := x.Dedup(); err != nil {
		panic(err)
	}
	return x, rank, bs, grid
}

// runSeed encodes a decodeWalkCase input at dims 12 whose mode-0 tree
// has consecutive fibers of the lengths in lens, in tree order from
// the first fiber: fiber f takes the f-th fiber prefix in the mode-0
// mode order, so runs cross parent boundaries every 12 fibers.
func runSeed(order int, caseByte, gridBits byte, lens []int) []byte {
	data := []byte{byte(order-3) | gridBits, caseByte}
	for range order {
		data = append(data, 11)
	}
	dims := make([]int, order)
	for m := range dims {
		dims[m] = 12
	}
	mo := DefaultModeOrder(dims, 0)
	coords := make([]int, order)
	for f, k := range lens {
		// The prefix digits of fiber f over mo[:order-1], last fastest.
		for d, rest := order-2, f; d >= 0; d-- {
			coords[mo[d]] = rest % 12
			rest /= 12
		}
		for j := range k {
			coords[mo[order-1]] = (f + 5*j) % 12
			for _, c := range coords {
				data = append(data, byte(c))
			}
			data = append(data, byte(f*37+j*11+1))
		}
	}
	return data
}
