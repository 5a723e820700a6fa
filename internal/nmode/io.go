package nmode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

// ErrNoData reports an input with neither data lines nor a dims
// comment, so the order is unknowable. Adapters with a fixed order
// (the facade's order-3 ReadTNS) match it to substitute an empty tensor.
var ErrNoData = errors.New("nmode: empty input with no dims comment")

// TNSStream parses a FROSTT-style text tensor one nonzero at a time
// without materialising it: each data line is N 1-based coordinates
// followed by a value; blank lines and '#' comments are ignored, and a
// "# dims: d1 ... dN" comment declares mode lengths. The order is
// fixed by the first data line. The out-of-core staging pass and
// ReadTNS share this parser, so streamed and in-memory reads accept
// exactly the same inputs.
//
// The parse runs ahead of Next on a pipeline of runtime.GOMAXPROCS(0)
// workers (see tnsparse.go), in blocks of whole lines that together
// hold about 4 MiB of text at any worker count;
// Next hands out the parsed nonzeros, "# dims:" lengths and errors in
// input order, so what a caller sees is what a line-by-line parse
// returns. A caller that stops before Next returns io.EOF or an error
// must call Close.
//
// A line is tokenised as bytes, in place, in one pass: fields are
// split exactly as strings.Fields splits them (at unicode.IsSpace
// runes), a field that is a run of at most 15 ASCII digits is parsed
// as it is scanned, and every other field goes to strconv.ParseInt or
// strconv.ParseFloat, so accepted inputs, parsed bits and error texts
// are those of the strconv parse of each field. A data line allocates
// nothing.
type TNSStream struct {
	p        tnsPipeline
	cur      *tnsBlock // the block Next is in; nil between blocks
	seq      int       // cur's index in input order
	nz       int       // the next nonzero of cur
	ev       int       // the next entry of cur.dimsAt
	dimsOff  int       // cur.dims declared so far
	checked  bool      // cur's first data line is checked against the order
	declared []int
	coords   []Index
	maxCoord []Index
	nnz      int
	err      error // io.EOF or the error that ended the stream
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

// errStreamClosed is what Next returns after Close.
var errStreamClosed = errors.New("nmode: TNSStream is closed")

// NewTNSStream wraps r in a streaming .tns parser.
func NewTNSStream(r io.Reader) *TNSStream {
	workers, blockBytes := tnsPipelineSize(runtime.GOMAXPROCS(0))
	return newTNSStream(r, workers, blockBytes)
}

// newTNSStream is NewTNSStream on `workers` workers and blocks of
// blockBytes.
func newTNSStream(r io.Reader, workers, blockBytes int) *TNSStream {
	return &TNSStream{p: tnsPipeline{r: r, workers: workers, blockBytes: blockBytes}}
}

// Next returns the next nonzero's zero-based coordinates and value, or
// io.EOF when the input is exhausted; after io.EOF or an error it keeps
// returning it. The coordinate slice is reused across calls; callers
// that retain coordinates must copy them.
//
//spblock:hotpath
func (s *TNSStream) Next() ([]Index, float64, error) {
	for {
		b := s.cur
		if b == nil {
			if s.err != nil {
				return nil, 0, s.err
			}
			b = s.advance()
		}
		if s.ev < len(b.dimsAt) {
			s.declare(b, s.nz)
		}
		if !s.checked {
			if err := s.checkOrder(b); err != nil {
				return nil, 0, s.fail(err)
			}
		}
		if k := s.nz; k < b.n {
			stride := b.chunk.stride
			for m := range s.coords {
				c := b.chunk.idx[m*stride+k]
				s.coords[m] = c
				if c+1 > s.maxCoord[m] {
					s.maxCoord[m] = c + 1
				}
			}
			s.nz++
			s.nnz++
			return s.coords, b.chunk.val[k], nil
		}
		if err := s.endBlock(b); err != nil {
			return nil, 0, err
		}
	}
}

// advance waits for the next block in input order and makes it
// current, starting the pipeline on the first call.
//
//spblock:coldpath
func (s *TNSStream) advance() *tnsBlock {
	if s.seq == 0 {
		s.p.start()
	}
	b := s.p.next(s.seq)
	s.cur, s.nz, s.ev, s.dimsOff, s.checked = b, 0, 0, 0, false
	return b
}

// declare appends the current block's "# dims:" lengths that come
// before its nonzero nz to the declared dims.
//
//spblock:coldpath
func (s *TNSStream) declare(b *tnsBlock, nz int) {
	for ; s.ev < len(b.dimsAt) && b.dimsAt[s.ev].nnz <= nz; s.ev++ {
		end := b.dimsAt[s.ev].end
		s.declared = append(s.declared, b.dims[s.dimsOff:end]...)
		s.dimsOff = end
	}
}

// checkOrder checks the current block's first data line against the
// order of the data lines before it; the first data line of the input
// fixes the order. The worker has checked the block's other lines
// against its first.
//
//spblock:coldpath
func (s *TNSStream) checkOrder(b *tnsBlock) error {
	s.checked = true
	switch {
	case b.order == 0:
	case s.coords == nil:
		buf := make([]Index, 2*b.order)
		s.coords, s.maxCoord = buf[:b.order:b.order], buf[b.order:]
	case b.order != len(s.coords):
		return fmt.Errorf("nmode: line %d: order %d conflicts with earlier order %d", b.dataLine, b.order, len(s.coords))
	}
	return nil
}

// endBlock declares the rest of the current block's dims and moves
// past it, returning the parse error, read error or io.EOF that ends
// the input there, if any.
//
//spblock:coldpath
func (s *TNSStream) endBlock(b *tnsBlock) error {
	s.declare(b, b.n)
	err := b.err
	if err == nil {
		err = b.readErr
	}
	if err == nil && b.last {
		err = io.EOF
	}
	if err != nil {
		return s.fail(err)
	}
	s.cur = nil
	s.seq++
	s.p.release(b)
	return nil
}

// fail ends the stream with err, stopping the pipeline.
//
//spblock:coldpath
func (s *TNSStream) fail(err error) error {
	s.err, s.cur = err, nil
	s.p.close()
	return err
}

// Close stops the parse and waits for its goroutines; the reader is
// not read after Close returns, and Next returns an error. It is
// needed only when the caller stops before Next returns io.EOF or an
// error, and may be called more than once.
func (s *TNSStream) Close() {
	if s.err == nil {
		s.err = errStreamClosed
	}
	s.cur = nil
	s.p.close()
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

// columnChunk holds up to stride parsed nonzeros: mode m's coordinate
// of nonzero k at idx[m*stride+k], its value at val[k].
type columnChunk struct {
	idx    []Index
	val    []float64
	stride int
}

// ReadTNS parses a FROSTT-style text tensor of any order: each line is
// N 1-based coordinates followed by a value; blank lines and '#'
// comments are ignored. The order is fixed by the first data line.
// Mode lengths are the maximum coordinate seen unless a comment of the
// form "# dims: d1 d2 ... dN" declares them. Lines may be arbitrarily
// long. The parse is TNSStream's pipeline, taken a block at a time:
// each block's nonzeros are parsed into a column chunk of its own, and
// the chunks are copied once, in input order, into exact-length Idx
// and Val slices. The result, error text and line number are those of
// a line-by-line parse at any worker count.
func ReadTNS(r io.Reader) (*Tensor, error) {
	workers, blockBytes := tnsPipelineSize(runtime.GOMAXPROCS(0))
	return readTNS(r, workers, blockBytes)
}

// readTNS is ReadTNS on `workers` workers and blocks of blockBytes.
func readTNS(r io.Reader, workers, blockBytes int) (*Tensor, error) {
	s := newTNSStream(r, workers, blockBytes)
	s.p.retain = true
	defer s.Close()
	chunks := make([]columnChunk, 0, 16)
	for {
		b := s.advance()
		if err := s.checkOrder(b); err != nil {
			return nil, err
		}
		if b.n > 0 {
			c := b.chunk
			c.val = c.val[:b.n]
			chunks = append(chunks, c)
			b.chunk = columnChunk{}
			for m, mc := range b.maxCoord {
				s.maxCoord[m] = max(s.maxCoord[m], mc)
			}
		}
		if err := s.endBlock(b); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	declared := s.DeclaredDims()
	if len(chunks) == 0 {
		if declared != nil {
			t := NewTensor(declared, 0)
			if err := t.Validate(); err != nil {
				return nil, err
			}
			return t, nil
		}
		return nil, ErrNoData
	}
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
// order-`order` tensor with exact-length columns and zero dims. A
// chunk's count is len(val).
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
		for m, col := range t.Idx {
			copy(col[off:], c.idx[m*c.stride:m*c.stride+len(c.val)])
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
