package nmode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spblock/internal/testutil/raceflag"
)

func TestReadTNSNOrder4(t *testing.T) {
	in := `# a 4-way tensor
1 1 1 1 5.0
2 3 1 4 -2
1 2 2 2 0.25
`
	x, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 4 || x.NNZ() != 3 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
	want := []int{2, 3, 2, 4}
	for m, d := range want {
		if x.Dims[m] != d {
			t.Fatalf("dims = %v, want %v", x.Dims, want)
		}
	}
	if x.Val[1] != -2 || x.Idx[3][1] != 3 {
		t.Fatal("entries parsed wrong")
	}
}

func TestReadTNSNDimsComment(t *testing.T) {
	in := "# dims: 5 5 5 5 5\n1 1 1 1 1 2.5\n"
	x, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 5 || x.Dims[4] != 5 {
		t.Fatalf("dims = %v", x.Dims)
	}
}

func TestReadTNSNErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields":      "1 1\n",
		"mixed order":         "1 1 1 1\n1 1 1 1 1\n",
		"zero coordinate":     "0 1 1 1\n",
		"bad coordinate":      "x 1 1 1\n",
		"bad value":           "1 1 1 zz\n",
		"dims comment order":  "# dims: 2 2\n1 1 1 1\n",
		"dims below data":     "# dims: 1 1 1\n2 1 1 1\n",
		"bad dims comment":    "# dims: a b\n1 1 1 1\n",
		"empty without dims":  "# nothing\n",
		"coordinate overflow": "4294967296 1 1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadTNS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadTNSNEmptyWithDims(t *testing.T) {
	x, err := ReadTNS(strings.NewReader("# dims: 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 2 || x.NNZ() != 0 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
}

// A single .tns line larger than bufio.Scanner's old 1<<22 token cap
// must parse: the reader is built on bufio.Reader line accumulation,
// not a capped Scanner. Regression test for the "token too long"
// failure on >4 MiB lines.
func TestReadTNSLongLine(t *testing.T) {
	var b strings.Builder
	b.WriteString("1 1 1 2.5")
	// Trailing spaces are legal field separators; pad the line past the
	// old cap without changing its meaning.
	pad := strings.Repeat(" ", 1<<16)
	for b.Len() < (1<<22)+(1<<20) {
		b.WriteString(pad)
	}
	b.WriteString("\n2 2 2 -1\n")
	x, err := ReadTNS(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("long line rejected: %v", err)
	}
	if x.NNZ() != 2 || x.Val[0] != 2.5 || x.Val[1] != -1 {
		t.Fatalf("long line parsed wrong: nnz=%d val=%v", x.NNZ(), x.Val)
	}
}

func TestTNSStreamMatchesReadTNS(t *testing.T) {
	in := "# dims: 4 5 3\n1 2 3 1.5\n4 5 1 -2\n\n# comment\n2 2 2 0.25"
	want, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := NewTNSStream(strings.NewReader(in))
	p := 0
	for {
		coords, val, err := s.Next()
		if err != nil {
			break
		}
		if val != want.Val[p] {
			t.Fatalf("entry %d: val %v want %v", p, val, want.Val[p])
		}
		for m := range coords {
			if coords[m] != want.Idx[m][p] {
				t.Fatalf("entry %d mode %d: %d want %d", p, m, coords[m], want.Idx[m][p])
			}
		}
		p++
	}
	if p != want.NNZ() || s.NNZ() != want.NNZ() {
		t.Fatalf("streamed %d entries, want %d", p, want.NNZ())
	}
	dd := s.DeclaredDims()
	if len(dd) != 3 || dd[0] != 4 || dd[1] != 5 || dd[2] != 3 {
		t.Fatalf("declared dims = %v", dd)
	}
	if s.Order() != 3 {
		t.Fatalf("order = %d", s.Order())
	}
}

// TestTNSStreamSeenSoFar: DeclaredDims and MaxCoords report what the
// lines before the last nonzero Next returned declare, however far the
// pipeline has parsed ahead; the out-of-core stager picks single-pass
// staging on that meaning.
func TestTNSStreamSeenSoFar(t *testing.T) {
	in := "# dims: 4\n1 2 5\n# dims: 5\n3 1 6\n# dims: 7\n"
	for _, w := range []int{1, 2, 3} {
		for block := 1; block <= len(in)+1; block++ {
			s := newTNSStream(strings.NewReader(in), w, block)
			var got [][]int
			for {
				_, _, err := s.Next()
				mc := s.MaxCoords()
				got = append(got, slices.Clone(s.DeclaredDims()), []int{int(mc[0]), int(mc[1])})
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			want := [][]int{{4}, {1, 2}, {4, 5}, {3, 2}, {4, 5, 7}, {3, 2}}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d workers, %d-byte blocks: dims and maxima after each Next %v, want %v", w, block, got, want)
			}
		}
	}
}

// TestReadTNSSparseBlocks: blocks whose lines are mostly blank or
// comments (a double-spaced body, a data run followed by more blank
// lines, a long comment run between data lines) parse as the reference
// parser does, at the default block size and at small blocks on
// several workers. Their chunks are sized for fewer nonzeros than
// lines, and the result is copied out at each chunk's own stride.
func TestReadTNSSparseBlocks(t *testing.T) {
	double := bytes.ReplaceAll(tnsLines(30_000, 3), newline, []byte("\n\n"))
	comments := slices.Concat(tnsLines(50, 4), bytes.Repeat([]byte("# c\n"), 40_000), tnsLines(50, 4)[len("# an allocation probe\n"):])
	cases := map[string][]byte{
		"five lines then six blank":   []byte(strings.Repeat("1 1 1 1\n", 5) + strings.Repeat("\n", 6)),
		"double-spaced, many blocks":  double,
		"a long comment run":          comments,
		"blank lines after each line": []byte(strings.Repeat("3 1 2\n\n\n\n\n\n\n\n", 20_000)),
	}
	for name, in := range cases {
		want, werr := referenceReadTNS(bytes.NewReader(in))
		if werr != nil {
			t.Fatalf("%s: the reference parser rejected it: %v", name, werr)
		}
		got, err := ReadTNS(bytes.NewReader(in))
		if err := sameParse(got, err, want, werr); err != nil {
			t.Fatalf("%s: ReadTNS: %v", name, err)
		}
		for _, w := range []int{1, 3} {
			for _, block := range []int{64, 4096} {
				got, err := readTNS(bytes.NewReader(in), w, block)
				if err := sameParse(got, err, want, werr); err != nil {
					t.Fatalf("%s: readTNS at %d workers, %d-byte blocks: %v", name, w, block, err)
				}
				got, err = streamReadTNS(bytes.NewReader(in), w, block)
				if err := sameParse(got, err, want, werr); err != nil {
					t.Fatalf("%s: TNSStream at %d workers, %d-byte blocks: %v", name, w, block, err)
				}
			}
		}
	}
}

// TestTNSPipelineSize: the slots hold at most tnsInFlightBytes of text
// at any core count, in blocks within [tnsMinBlockBytes,
// tnsBlockBytes], on a worker per core up to the count that allows.
func TestTNSPipelineSize(t *testing.T) {
	for procs := 1; procs <= 1024; procs++ {
		w, block := tnsPipelineSize(procs)
		if w != min(procs, tnsInFlightBytes/(2*tnsMinBlockBytes)) {
			t.Fatalf("%d cores: %d workers", procs, w)
		}
		if block < tnsMinBlockBytes || block > tnsBlockBytes || 2*w*block > tnsInFlightBytes {
			t.Fatalf("%d cores: %d workers on %d-byte blocks hold %d bytes, want at most %d", procs, w, block, 2*w*block, tnsInFlightBytes)
		}
	}
	if w, block := tnsPipelineSize(2); w != 2 || block != tnsBlockBytes {
		t.Fatalf("2 cores: %d workers on %d-byte blocks, want 2 on %d", w, block, tnsBlockBytes)
	}
}

// failingReader yields body's first n bytes a few at a time, then
// fails.
type failingReader struct {
	body []byte
	n    int
}

var errInjected = errors.New("injected read failure")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, errInjected
	}
	k := copy(p[:min(len(p), 7)], r.body[:r.n])
	r.body, r.n = r.body[k:], r.n-k
	return k, nil
}

// TestReadTNSSettlesGoroutines: a parse that ends in a read failure in
// the first, a middle or the last block, or in a parse error in a late
// block, or that its caller stops early, returns the same error as a
// line-by-line parse (a parse error in a whole line before the failure
// comes first), and runtime.NumGoroutine settles back to its pre-call
// count.
func TestReadTNSSettlesGoroutines(t *testing.T) {
	const block = 64
	body := tnsLines(200, 3) // about 30 blocks
	late := bytes.LastIndex(body[:len(body)-3*block], newline) + 1
	badLate := slices.Concat(body[:late], []byte("1 1 x 1\n"), body[late:])
	_, bad := referenceReadTNS(bytes.NewReader(badLate))
	if bad == nil {
		t.Fatal("the reference parser accepted the bad line")
	}
	cases := []struct {
		name string
		r    func() io.Reader
		want string
	}{
		{"read fails in the first block", func() io.Reader { return &failingReader{body, 20} }, "nmode: read: injected read failure"},
		{"read fails in a middle block", func() io.Reader { return &failingReader{body, len(body) / 2} }, "nmode: read: injected read failure"},
		{"read fails in the last block", func() io.Reader { return &failingReader{body, len(body) - 5} }, "nmode: read: injected read failure"},
		{"parse error before the read failure", func() io.Reader { return &failingReader{badLate, len(badLate) - 5} }, bad.Error()},
		{"parse error in a late block", func() io.Reader { return bytes.NewReader(badLate) }, bad.Error()},
	}
	for _, c := range cases {
		for _, w := range []int{1, 3} {
			before := runtime.NumGoroutine()
			_, err := readTNS(c.r(), w, block)
			if err == nil || err.Error() != c.want {
				t.Fatalf("%s, %d workers: err = %v, want %q", c.name, w, err, c.want)
			}
			_, serr := streamReadTNS(c.r(), w, block)
			if serr == nil || serr.Error() != err.Error() {
				t.Fatalf("%s, %d workers: TNSStream err = %v, readTNS %v", c.name, w, serr, err)
			}
			settle(t, before, fmt.Sprintf("%s, %d workers", c.name, w))
		}
	}
	for _, w := range []int{1, 3} {
		before := runtime.NumGoroutine()
		s := newTNSStream(bytes.NewReader(body), w, block)
		for i := 0; i < 5; i++ {
			if _, _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if _, _, err := s.Next(); err == nil {
			t.Fatalf("%d workers: Next after Close returned no error", w)
		}
		settle(t, before, fmt.Sprintf("a stream closed early, %d workers", w))
	}
}

// settle fails unless runtime.NumGoroutine falls back to at most
// before within 2 s.
func settle(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%s: %d goroutines after the parse, %d before", what, n, before)
	}
}

func TestWriteReadRoundTripN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randTensorN(rng, []int{4, 5, 3, 6}, 120)
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Order() != 4 || back.NNZ() != x.NNZ() {
		t.Fatalf("round trip shape wrong: order=%d nnz=%d", back.Order(), back.NNZ())
	}
	for m := range x.Dims {
		if back.Dims[m] != x.Dims[m] {
			t.Fatalf("dims = %v vs %v", back.Dims, x.Dims)
		}
	}
	// Entry-by-entry (x is deduped-sorted; back preserves write order).
	for p := 0; p < x.NNZ(); p++ {
		if back.Val[p] != x.Val[p] {
			t.Fatalf("value mismatch at %d", p)
		}
		for m := range x.Dims {
			if back.Idx[m][p] != x.Idx[m][p] {
				t.Fatalf("coord mismatch at %d mode %d", p, m)
			}
		}
	}
}

func TestFileRoundTripN(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t4.tns")
	rng := rand.New(rand.NewSource(2))
	x := randTensorN(rng, []int{3, 3, 3, 3}, 30)
	if err := SaveTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTNSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() {
		t.Fatal("file round trip lost entries")
	}
	if _, err := LoadTNSFile(filepath.Join(dir, "missing.tns")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// tnsLines returns an order-`order` .tns body of `lines` data lines
// whose values cycle through the tokenizer's paths: digit runs, and
// decimals, exponents and signs that go to strconv.
func tnsLines(lines, order int) []byte {
	rng := rand.New(rand.NewSource(int64(lines)))
	vals := []string{"1", "37", "0.25", "-1.5e-3", "2.718281828459045", "1e300"}
	var b bytes.Buffer
	b.WriteString("# an allocation probe\n")
	for i := 0; i < lines; i++ {
		for m := 0; m < order; m++ {
			fmt.Fprintf(&b, "%d ", 1+rng.Intn(5000))
		}
		b.WriteString(vals[i%len(vals)])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestReadTNSAllocs pins the parser's allocations: ReadTNS of a
// 200k-line order-4 body allocates only the stream, its slots, one
// column chunk per block and the exact-length result, a count that
// does not grow with the line count, and TNSStream.Next, the
// out-of-core stager's loop, allocates nothing per data line once the
// order is fixed.
func TestReadTNSAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const lines, order = 200_000, 4
	in := tnsLines(lines, order)
	got := testing.AllocsPerRun(3, func() {
		if _, err := ReadTNS(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun runs at GOMAXPROCS 1, so on one worker. The 5.2 MB
	// body is 7 blocks (64 KiB, 256 KiB, then 1 MiB), kept as 7 chunks
	// of two slices each; the rest (about 19) is the stream, its slots
	// and their 4 block buffers, the two goroutines, the comment line
	// and the exact-length result. A per-line allocation would add
	// 200k.
	if got > 48 {
		t.Errorf("ReadTNS of %d lines: %v allocations, want at most 48", lines, got)
	}

	s := NewTNSStream(bytes.NewReader(in))
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(10_000, func() {
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("TNSStream.Next: %v allocations per data line, want 0", got)
	}
}

// tnsGen streams n order-2 data lines, line k being
// "k%7+1 k%11+1 k%13", without holding the body in memory.
type tnsGen struct {
	k, n int
	line []byte
	rest []byte
}

func (g *tnsGen) Read(p []byte) (int, error) {
	w := 0
	for w < len(p) {
		if len(g.rest) == 0 {
			if g.k == g.n {
				break
			}
			l := strconv.AppendInt(g.line[:0], int64(g.k%7+1), 10)
			l = append(l, ' ')
			l = strconv.AppendInt(l, int64(g.k%11+1), 10)
			l = append(l, ' ')
			l = strconv.AppendInt(l, int64(g.k%13), 10)
			g.line = append(l, '\n')
			g.rest = g.line
			g.k++
		}
		c := copy(p[w:], g.rest)
		g.rest, w = g.rest[c:], w+c
	}
	if w == 0 {
		return 0, io.EOF
	}
	return w, nil
}

// TestReadTNSManyChunks reads more nonzeros than 53 full 64Ki column
// chunks hold (3,144,704 after the doubling ones), past where a chunk
// size computed by shifting by the chunk count overflows, and checks
// every nonzero lands in place.
func TestReadTNSManyChunks(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("parses 3.3M lines into about 100 MB")
	}
	const n = 3_300_000
	x, err := ReadTNS(&tnsGen{n: n})
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != n || x.Dims[0] != 7 || x.Dims[1] != 11 {
		t.Fatalf("got dims %v nnz %d, want [7 11] nnz %d", x.Dims, x.NNZ(), n)
	}
	for k := 0; k < n; k++ {
		if x.Idx[0][k] != Index(k%7) || x.Idx[1][k] != Index(k%11) || x.Val[k] != float64(k%13) {
			t.Fatalf("nonzero %d: (%d, %d) %v", k, x.Idx[0][k], x.Idx[1][k], x.Val[k])
		}
	}
}

// fmtWriteTNS is the fmt-based writer WriteTNS replaced, kept as its
// byte-for-byte reference.
func fmtWriteTNS(w io.Writer, t *Tensor) {
	fmt.Fprint(w, "# dims:")
	for _, d := range t.Dims {
		fmt.Fprintf(w, " %d", d)
	}
	fmt.Fprintln(w)
	for p := 0; p < t.NNZ(); p++ {
		for m := range t.Dims {
			fmt.Fprintf(w, "%d ", t.Idx[m][p]+1)
		}
		fmt.Fprintln(w, strconv.FormatFloat(t.Val[p], 'g', -1, 64))
	}
}

// TestWriteTNSMatchesFmt checks WriteTNS byte for byte against the fmt
// reference on random order-2 to order-5 tensors whose values include
// NaN, ±Inf, −0 and subnormals, and that ReadTNS reads back the bits.
func TestWriteTNSMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, -2.5e-310, math.MaxFloat64, 1e21, 123456789, 0.1}
	for order := 2; order <= 5; order++ {
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 1 + rng.Intn(1000)
		}
		x := NewTensor(dims, 0)
		coords := make([]Index, order)
		for p := 0; p < 500; p++ {
			for m := range coords {
				coords[m] = Index(rng.Intn(dims[m]))
			}
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if p%3 == 0 {
				v = special[rng.Intn(len(special))]
			}
			x.Append(coords, v)
		}
		var got, want bytes.Buffer
		if err := WriteTNS(&got, x); err != nil {
			t.Fatal(err)
		}
		fmtWriteTNS(&want, x)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("order %d: WriteTNS output differs from the fmt reference", order)
		}
		back, err := ReadTNS(&got)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameParse(back, nil, x, nil); err != nil {
			t.Fatalf("order %d: read back: %v", order, err)
		}
	}
}

// BenchmarkReadTNS parses a generated 200k-line order-3 body (about
// 4 MB); the MB/s column is the parse rate, and -cpu sets the worker
// count.
func BenchmarkReadTNS(b *testing.B) {
	in := tnsLines(200_000, 3)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTNS(bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}
