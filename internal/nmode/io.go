package nmode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ErrNoData reports an input with neither data lines nor a dims
// comment, so the order is unknowable. Adapters with a fixed order
// (the facade's order-3 ReadTNS) match it to substitute an empty tensor.
var ErrNoData = errors.New("nmode: empty input with no dims comment")

// lineReader yields '\n'-terminated lines of unbounded length from a
// bufio.Reader. Unlike bufio.Scanner there is no maximum token size:
// a line that fits the reader's 64 KiB buffer is returned in place,
// and only one that overflows it is accumulated into a reusable line
// buffer, so a multi-megabyte line costs one amortised allocation
// instead of a "token too long" error. The returned slice is valid
// until the next call.
type lineReader struct {
	br   *bufio.Reader
	buf  []byte
	done bool
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// next returns the next line without its trailing newline (a trailing
// '\r' is also dropped, matching bufio.ScanLines). It returns io.EOF
// once the input is exhausted; a final unterminated line is returned
// first with a nil error.
//
//spblock:hotpath
func (lr *lineReader) next() ([]byte, error) {
	if lr.done {
		return nil, io.EOF
	}
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.buf = append(lr.buf[:0], line...) //spblock:allow a line longer than the reader's buffer is accumulated; the buffer is reused, so this amortises to the longest line
		for err == bufio.ErrBufferFull {
			line, err = lr.br.ReadSlice('\n')
			lr.buf = append(lr.buf, line...) //spblock:allow as above: growth to the longest line, once
		}
		line = lr.buf
	}
	if err == io.EOF {
		lr.done = true
		if len(line) == 0 {
			return nil, io.EOF
		}
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// TNSStream parses a FROSTT-style text tensor one nonzero at a time
// without materialising it: each data line is N 1-based coordinates
// followed by a value; blank lines and '#' comments are ignored, and a
// "# dims: d1 ... dN" comment declares mode lengths. The order is
// fixed by the first data line. The out-of-core staging pass and
// ReadTNS share this parser, so streamed and in-memory reads accept
// exactly the same inputs.
//
// A line is tokenised as bytes, in place, in one pass: fields are
// split exactly as strings.Fields splits them (at unicode.IsSpace
// runes), a field that is a run of at most 15 ASCII digits is parsed
// as it is scanned, and every other field goes to strconv.ParseInt or
// strconv.ParseFloat, so accepted inputs, parsed bits and error texts
// are those of the strconv parse of each field. A data line allocates
// nothing.
type TNSStream struct {
	lr       *lineReader
	line     int
	declared []int
	maxCoord []Index
	coords   []Index
	fields   []tnsField // the current line's fields
	nnz      int
}

// tnsField is one field of a line: its bytes [start, end), and its
// value when it is a run of 1 to maxDigits ASCII digits, else -1.
type tnsField struct {
	start, end int
	num        int64
}

// maxDigits bounds the digit runs the tokenizer parses itself: every
// integer below 10^15 < 2^53 is exact in a float64, so float64(num) is
// ParseFloat's correctly rounded result, and below 2^63 num is
// ParseInt's.
const maxDigits = 15

// NewTNSStream wraps r in a streaming .tns parser.
func NewTNSStream(r io.Reader) *TNSStream {
	return &TNSStream{lr: newLineReader(r)}
}

// Next returns the next nonzero's zero-based coordinates and value, or
// io.EOF when the input is exhausted. The coordinate slice is reused
// across calls; callers that retain coordinates must copy them.
//
//spblock:hotpath
func (s *TNSStream) Next() ([]Index, float64, error) {
	for {
		raw, err := s.lr.next()
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		if err != nil {
			return nil, 0, fmt.Errorf("nmode: read: %w", err) //spblock:allow error return ends the stream
		}
		s.line++
		fs := s.split(raw)
		if len(fs) == 0 {
			continue
		}
		if raw[fs[0].start] == '#' {
			if err := s.comment(raw); err != nil {
				return nil, 0, err
			}
			continue
		}
		if len(fs) < 3 {
			return nil, 0, fmt.Errorf("nmode: line %d: want >= 2 coordinates and a value, got %d fields", s.line, len(fs)) //spblock:allow error return ends the stream
		}
		order := len(fs) - 1
		if s.coords == nil {
			s.coords, s.maxCoord = make([]Index, order), make([]Index, order) //spblock:allow once per stream: the first data line fixes the order
		} else if order != len(s.coords) {
			return nil, 0, fmt.Errorf("nmode: line %d: order %d conflicts with earlier order %d", s.line, order, len(s.coords)) //spblock:allow error return ends the stream
		}
		for m, f := range fs[:order] {
			v := f.num
			if v < 0 {
				field := raw[f.start:f.end]
				v, err = strconv.ParseInt(string(field), 10, 64) //spblock:allow strconv fallback for a coordinate that is not a short digit run; the conversion does not escape, so a field of up to 32 bytes stays on the stack
				if err != nil {
					return nil, 0, fmt.Errorf("nmode: line %d: bad coordinate %q: %v", s.line, field, err) //spblock:allow error return ends the stream
				}
			}
			if v < 1 {
				return nil, 0, fmt.Errorf("nmode: line %d: coordinates are 1-based, got %d", s.line, v) //spblock:allow error return ends the stream
			}
			if v > 1<<31-1 {
				return nil, 0, fmt.Errorf("nmode: line %d: coordinate %d exceeds int32 range", s.line, v) //spblock:allow error return ends the stream
			}
			s.coords[m] = Index(v - 1)
			if s.coords[m]+1 > s.maxCoord[m] {
				s.maxCoord[m] = s.coords[m] + 1
			}
		}
		f := fs[order]
		val := float64(f.num)
		if f.num < 0 {
			field := raw[f.start:f.end]
			val, err = strconv.ParseFloat(string(field), 64) //spblock:allow strconv fallback for a value that is not a short digit run; the conversion does not escape, so a field of up to 32 bytes stays on the stack
			if err != nil {
				return nil, 0, fmt.Errorf("nmode: line %d: bad value %q: %v", s.line, field, err) //spblock:allow error return ends the stream
			}
		}
		s.nnz++
		return s.coords, val, nil
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports, the
// separators of strings.Fields' ASCII path.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split records in s.fields the fields strings.Fields(string(raw))
// returns, maximal runs of runes that are not unicode.IsSpace, parsing
// the short digit runs on the way. ASCII bytes are tested inline; a
// rune is decoded only at a byte >= 0x80, where invalid UTF-8 counts
// as a field byte, as it does there.
//
//spblock:hotpath
func (s *TNSStream) split(raw []byte) []tnsField {
	fs := s.fields[:0]
	for i := 0; i < len(raw); {
		if c := raw[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				i++
				continue
			}
		} else if r, w := utf8.DecodeRune(raw[i:]); unicode.IsSpace(r) {
			i += w
			continue
		}
		f := tnsField{start: i}
		digitsOnly := true
		for i < len(raw) {
			c := raw[i]
			if d := c - '0'; d <= 9 {
				f.num = f.num*10 + int64(d)
				i++
				continue
			}
			if c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				digitsOnly = false
				i++
				continue
			}
			r, w := utf8.DecodeRune(raw[i:])
			if unicode.IsSpace(r) {
				break
			}
			digitsOnly = false
			i += w
		}
		f.end = i
		if !digitsOnly || f.end-f.start > maxDigits {
			f.num = -1
		}
		fs = append(fs, f) //spblock:allow the field buffer grows to the widest line once, then is reused
	}
	s.fields = fs
	return fs
}

// comment handles a line whose first field starts with '#': a
// "# dims:" comment appends its lengths to the declared dims, any other
// comment is ignored.
//
//spblock:coldpath
func (s *TNSStream) comment(raw []byte) error {
	rest, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "# dims:")
	if !ok {
		return nil
	}
	for _, f := range strings.Fields(rest) {
		d, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("nmode: line %d: bad dims comment: %v", s.line, err)
		}
		s.declared = append(s.declared, d)
	}
	return nil
}

// Order reports the tensor order fixed by the first data line, or 0 if
// no data line has been seen yet.
func (s *TNSStream) Order() int { return len(s.coords) }

// NNZ reports the number of data lines parsed so far.
func (s *TNSStream) NNZ() int { return s.nnz }

// DeclaredDims returns the mode lengths from "# dims:" comments seen
// so far, or nil if none. Multiple comments concatenate, mirroring
// ReadTNS; a length mismatch with the data order is the caller's check.
func (s *TNSStream) DeclaredDims() []int { return s.declared }

// MaxCoords returns, per mode, one past the largest zero-based
// coordinate seen so far — the derived mode lengths when no dims
// comment is present. Nil before the first data line.
func (s *TNSStream) MaxCoords() []Index { return s.maxCoord }

// maxChunkNNZ caps ReadTNS's column chunks at 64Ki nonzeros.
const maxChunkNNZ = 1 << 16

// columnChunk holds up to cap(val) parsed nonzeros: mode m's
// coordinate of nonzero k at idx[m*cap(val)+k], its value at val[k].
type columnChunk struct {
	idx []Index
	val []float64
}

// ReadTNS parses a FROSTT-style text tensor of any order: each line is
// N 1-based coordinates followed by a value; blank lines and '#'
// comments are ignored. The order is fixed by the first data line.
// Mode lengths are the maximum coordinate seen unless a comment of the
// form "# dims: d1 d2 ... dN" declares them. Lines may be arbitrarily
// long: parsing is built on TNSStream's bufio.Reader line reading, not
// a capped bufio.Scanner. The nonzeros are gathered in column chunks
// and copied once into exact-length Idx and Val slices; the chunks
// double from 1Ki to 64Ki nonzeros, so a small input does not pay for
// a 64Ki chunk.
func ReadTNS(r io.Reader) (*Tensor, error) {
	s := NewTNSStream(r)
	var chunks []columnChunk
	var cur columnChunk
	n := 0 // nonzeros in cur
	for {
		coords, val, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if n == len(cur.val) {
			if cur.val != nil {
				chunks = append(chunks, cur)
			}
			size := min(max(2*len(cur.val), 1024), maxChunkNNZ)
			cur = columnChunk{idx: make([]Index, len(coords)*size), val: make([]float64, size)}
			n = 0
		}
		size := len(cur.val)
		for m, c := range coords {
			cur.idx[m*size+n] = c
		}
		cur.val[n] = val
		n++
	}
	declared := s.DeclaredDims()
	if cur.val == nil {
		if declared != nil {
			t := NewTensor(declared, 0)
			if err := t.Validate(); err != nil {
				return nil, err
			}
			return t, nil
		}
		return nil, ErrNoData
	}
	cur.val = cur.val[:n]
	chunks = append(chunks, cur)
	t := gatherChunks(chunks, s.Order())
	if declared != nil {
		if len(declared) != t.Order() {
			return nil, fmt.Errorf("nmode: dims comment has %d modes, data has %d",
				len(declared), t.Order())
		}
		t.Dims = declared
	} else {
		for m, mc := range s.MaxCoords() {
			t.Dims[m] = int(mc)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// gatherChunks copies the chunks' nonzeros, in order, into a new
// order-`order` tensor with exact-length columns and zero dims. Every
// chunk but the last is full; the last is cut to its count.
func gatherChunks(chunks []columnChunk, order int) *Tensor {
	nnz := 0
	for _, c := range chunks {
		nnz += len(c.val)
	}
	t := &Tensor{Dims: make([]int, order), Idx: make([][]Index, order), Val: make([]float64, nnz)}
	for m := range t.Idx {
		t.Idx[m] = make([]Index, nnz)
	}
	off := 0
	for _, c := range chunks {
		stride := cap(c.val)
		for m, col := range t.Idx {
			copy(col[off:], c.idx[m*stride:m*stride+len(c.val)])
		}
		copy(t.Val[off:], c.val)
		off += len(c.val)
	}
	return t
}

// WriteTNS writes the tensor in FROSTT text form with a dims comment:
// coordinates as 1-based decimal integers and values in strconv's
// shortest 'g' form, which ReadTNS parses back to the same bits. Each
// line is formatted into one reused buffer.
func WriteTNS(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	line := append(make([]byte, 0, 128), "# dims:"...)
	for _, d := range t.Dims {
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(d), 10)
	}
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for p := 0; p < t.NNZ(); p++ {
		line = line[:0]
		for m := range t.Dims {
			line = strconv.AppendInt(line, int64(t.Idx[m][p])+1, 10)
			line = append(line, ' ')
		}
		line = strconv.AppendFloat(line, t.Val[p], 'g', -1, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadTNSFile reads an order-N tensor from a file path.
func LoadTNSFile(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTNS(f)
}

// SaveTNSFile writes an order-N tensor to a file path.
func SaveTNSFile(path string, t *Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTNS(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
