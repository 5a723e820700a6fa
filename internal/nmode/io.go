package nmode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ErrNoData reports an input with neither data lines nor a dims
// comment, so the order is unknowable. Adapters with a fixed order
// (the facade's order-3 ReadTNS) match it to substitute an empty tensor.
var ErrNoData = errors.New("nmode: empty input with no dims comment")

// lineReader yields '\n'-terminated lines of unbounded length from a
// bufio.Reader. Unlike bufio.Scanner there is no maximum token size:
// fragments that overflow the reader's internal buffer are accumulated
// into a reusable line buffer, so a multi-megabyte line costs one
// amortised allocation instead of a "token too long" error. The
// returned slice is valid until the next call.
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
func (lr *lineReader) next() ([]byte, error) {
	if lr.done {
		return nil, io.EOF
	}
	lr.buf = lr.buf[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		lr.buf = append(lr.buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			lr.done = true
			if len(lr.buf) == 0 {
				return nil, io.EOF
			}
			err = nil
		}
		if err != nil {
			return nil, err
		}
		line := lr.buf
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return line, nil
	}
}

// TNSStream parses a FROSTT-style text tensor one nonzero at a time
// without materialising it: each data line is N 1-based coordinates
// followed by a value; blank lines and '#' comments are ignored, and a
// "# dims: d1 ... dN" comment declares mode lengths. The order is
// fixed by the first data line. The out-of-core staging pass and
// ReadTNS share this parser, so streamed and in-memory reads accept
// exactly the same inputs.
type TNSStream struct {
	lr       *lineReader
	line     int
	declared []int
	maxCoord []Index
	coords   []Index
	nnz      int
}

// NewTNSStream wraps r in a streaming .tns parser.
func NewTNSStream(r io.Reader) *TNSStream {
	return &TNSStream{lr: newLineReader(r)}
}

// Next returns the next nonzero's zero-based coordinates and value, or
// io.EOF when the input is exhausted. The coordinate slice is reused
// across calls; callers that retain coordinates must copy them.
func (s *TNSStream) Next() ([]Index, float64, error) {
	for {
		raw, err := s.lr.next()
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		if err != nil {
			return nil, 0, fmt.Errorf("nmode: read: %w", err)
		}
		s.line++
		text := strings.TrimSpace(string(raw))
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# dims:"); ok {
				for _, f := range strings.Fields(rest) {
					d, err := strconv.Atoi(f)
					if err != nil {
						return nil, 0, fmt.Errorf("nmode: line %d: bad dims comment: %v", s.line, err)
					}
					s.declared = append(s.declared, d)
				}
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, 0, fmt.Errorf("nmode: line %d: want >= 2 coordinates and a value, got %d fields",
				s.line, len(fields))
		}
		order := len(fields) - 1
		if s.coords == nil {
			s.coords = make([]Index, order)
			s.maxCoord = make([]Index, order)
		} else if order != len(s.coords) {
			return nil, 0, fmt.Errorf("nmode: line %d: order %d conflicts with earlier order %d",
				s.line, order, len(s.coords))
		}
		for m := 0; m < order; m++ {
			v, err := strconv.ParseInt(fields[m], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("nmode: line %d: bad coordinate %q: %v", s.line, fields[m], err)
			}
			if v < 1 {
				return nil, 0, fmt.Errorf("nmode: line %d: coordinates are 1-based, got %d", s.line, v)
			}
			if v > 1<<31-1 {
				return nil, 0, fmt.Errorf("nmode: line %d: coordinate %d exceeds int32 range", s.line, v)
			}
			s.coords[m] = Index(v - 1)
			if s.coords[m]+1 > s.maxCoord[m] {
				s.maxCoord[m] = s.coords[m] + 1
			}
		}
		val, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("nmode: line %d: bad value %q: %v", s.line, fields[order], err)
		}
		s.nnz++
		return s.coords, val, nil
	}
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

// ReadTNS parses a FROSTT-style text tensor of any order: each line is
// N 1-based coordinates followed by a value; blank lines and '#'
// comments are ignored. The order is fixed by the first data line.
// Mode lengths are the maximum coordinate seen unless a comment of the
// form "# dims: d1 d2 ... dN" declares them. Lines may be arbitrarily
// long: parsing is built on TNSStream's bufio.Reader line reading, not
// a capped bufio.Scanner.
func ReadTNS(r io.Reader) (*Tensor, error) {
	s := NewTNSStream(r)
	var t *Tensor
	for {
		coords, val, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if t == nil {
			dims := make([]int, len(coords))
			for m := range dims {
				dims[m] = 1
			}
			t = NewTensor(dims, 1024)
		}
		t.Append(coords, val)
	}
	declared := s.DeclaredDims()
	if t == nil {
		if declared != nil {
			t = NewTensor(declared, 0)
			if err := t.Validate(); err != nil {
				return nil, err
			}
			return t, nil
		}
		return nil, ErrNoData
	}
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

// WriteTNS writes the tensor in FROSTT text form with a dims comment.
func WriteTNS(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "# dims:")
	for _, d := range t.Dims {
		fmt.Fprintf(bw, " %d", d)
	}
	fmt.Fprintln(bw)
	for p := 0; p < t.NNZ(); p++ {
		for m := range t.Dims {
			fmt.Fprintf(bw, "%d ", t.Idx[m][p]+1)
		}
		if _, err := fmt.Fprintln(bw, strconv.FormatFloat(t.Val[p], 'g', -1, 64)); err != nil {
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
