package nmode

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The .tns parse is a bounded, order-preserving pipeline. One reader
// goroutine cuts the input into blocks of whole lines, up to `workers`
// goroutines tokenise blocks into column chunks, and the consumer
// (TNSStream.Next nonzero by nonzero, or ReadTNS block by block) takes
// the blocks in input order. Blocks live in 2×workers slots reused
// round-robin: block k is parsed in slot k mod slots, and the reader
// refills a slot only after the consumer has released the block before
// it there, so at most two blocks per worker are in flight. The block
// shrinks as workers are added, so the slots hold about
// tnsInFlightBytes of text at any core count.
//
// A worker parses a block exactly as a sequential parse that had
// already read the lines before it would, with one exception: the
// tensor order is fixed by the block's own first data line. The
// consumer checks that line against the order of the blocks before it,
// before it takes anything else from the block, so every nonzero,
// "# dims:" length and error reaches the caller in input order, and
// the first error in input order is the one returned.

const (
	// tnsBlockBytes is the largest block the reader cuts.
	tnsBlockBytes = 1 << 20
	// tnsMinBlockBytes is the first block's size and the smallest
	// block size; each later block is four times the one before, up to
	// the block size, so a short body is read into buffers of the order
	// of its own size.
	tnsMinBlockBytes = 64 << 10
	// tnsInFlightBytes is the text the 2×workers slots hold when full.
	tnsInFlightBytes = 4 << 20
	// maxEmptyReads is bufio.Reader's bound: that many consecutive
	// empty reads end the input with io.ErrNoProgress.
	maxEmptyReads = 100
)

var newline = []byte{'\n'}

// tnsPipelineSize returns the worker count and block size of a parse
// on procs cores: a worker per core, up to the count whose slots hold
// tnsInFlightBytes in blocks of tnsMinBlockBytes, and blocks of
// tnsInFlightBytes over the slot count, within [tnsMinBlockBytes,
// tnsBlockBytes].
func tnsPipelineSize(procs int) (workers, blockBytes int) {
	workers = max(1, min(procs, tnsInFlightBytes/(2*tnsMinBlockBytes)))
	blockBytes = min(tnsBlockBytes, max(tnsMinBlockBytes, tnsInFlightBytes/(2*workers)))
	return workers, blockBytes
}

// tnsBlock is one pipeline slot. The reader fills the input fields, a
// worker parses them into the result fields, and the consumer reads
// the result and releases the slot for refilling.
type tnsBlock struct {
	buf     []byte // whole lines; only the last block may end without '\n'
	line0   int    // lines before the block
	lines   int    // '\n's in buf
	last    bool   // the input ends with this block
	readErr error  // the read failure that ended the input after buf

	parsed bool // guarded by tnsPipeline.mu

	chunk    columnChunk // the block's n nonzeros
	n        int
	order    int       // fields−1 of the block's first data line; 0 if it has none
	dataLine int       // that line's number
	maxCoord []Index   // per mode, one past the block's largest coordinate
	dims     []int     // lengths from the block's "# dims:" comments, in order
	dimsAt   []tnsDims // where those lengths sit among the nonzeros
	err      error     // the block's first parse error; nothing after it is parsed

	fields   []tnsField // the current line's fields
	fieldBuf [16]tnsField
	maxBuf   [8]Index
}

// tnsDims places a block's "# dims:" lengths among its nonzeros: the
// lengths before dims[end] come before nonzero nnz.
type tnsDims struct{ nnz, end int }

// parse tokenises the block's lines into its chunk, stopping at the
// first error. Line numbers and error texts are those of a sequential
// parse that has read line0 lines, except that the order is fixed by
// the block's own first data line (see the pipeline comment). With
// retain set the consumer keeps the chunk, so it is a new one;
// otherwise the slot's chunk is reused.
//
//spblock:hotpath
func (b *tnsBlock) parse(retain bool) {
	b.n, b.order, b.dataLine, b.err = 0, 0, 0, nil
	b.dims, b.dimsAt = b.dims[:0], b.dimsAt[:0]
	var (
		idx    []Index
		vals   []float64
		stride int
	)
	line, rest := b.line0, b.buf
	for len(rest) > 0 {
		raw := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			raw, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		line++
		fs := b.split(raw)
		if len(fs) == 0 {
			continue
		}
		if raw[fs[0].start] == '#' {
			if b.err = b.comment(raw, line); b.err != nil {
				return
			}
			continue
		}
		if len(fs) < 3 {
			b.err = fmt.Errorf("nmode: line %d: want >= 2 coordinates and a value, got %d fields", line, len(fs)) //spblock:allow error return ends the block
			return
		}
		order := len(fs) - 1
		if b.order == 0 {
			b.order, b.dataLine = order, line
			// This line and every one after it in the block may hold a
			// nonzero; only the last block can end without '\n'. They
			// start at most len(raw)+2 bytes before rest.
			b.startChunk(order, b.lines+1-(line-1-b.line0), len(raw)+2+len(rest), retain)
			idx, vals, stride = b.chunk.idx, b.chunk.val, b.chunk.stride
		} else if order != b.order {
			b.err = fmt.Errorf("nmode: line %d: order %d conflicts with earlier order %d", line, order, b.order) //spblock:allow error return ends the block
			return
		}
		for m, f := range fs[:order] {
			v := f.num
			if v < 0 {
				field := raw[f.start:f.end]
				var err error
				v, err = strconv.ParseInt(string(field), 10, 64) //spblock:allow strconv fallback for a coordinate that is not a short digit run; the conversion does not escape, so a field of up to 32 bytes stays on the stack
				if err != nil {
					b.err = fmt.Errorf("nmode: line %d: bad coordinate %q: %v", line, field, err) //spblock:allow error return ends the block
					return
				}
			}
			if v < 1 {
				b.err = fmt.Errorf("nmode: line %d: coordinates are 1-based, got %d", line, v) //spblock:allow error return ends the block
				return
			}
			if v > 1<<31-1 {
				b.err = fmt.Errorf("nmode: line %d: coordinate %d exceeds int32 range", line, v) //spblock:allow error return ends the block
				return
			}
			c := Index(v - 1)
			idx[m*stride+b.n] = c
			if c+1 > b.maxCoord[m] {
				b.maxCoord[m] = c + 1
			}
		}
		f := fs[order]
		val := float64(f.num)
		if f.num < 0 {
			field := raw[f.start:f.end]
			var err error
			val, err = strconv.ParseFloat(string(field), 64) //spblock:allow strconv fallback for a value that is not a short digit run; the conversion does not escape, so a field of up to 32 bytes stays on the stack
			if err != nil {
				b.err = fmt.Errorf("nmode: line %d: bad value %q: %v", line, field, err) //spblock:allow error return ends the block
				return
			}
		}
		vals[b.n] = val
		b.n++
	}
}

// startChunk readies the chunk for the order-`order` nonzeros of the
// block's last `lines` lines, which span at most `bytes` bytes, and
// zeroes the block's coordinate maxima. A data line holds order+1
// fields of at least a byte and order separators, and every line but
// the last ends in '\n', so those bytes hold at most
// bytes/(2·order+2)+1 nonzeros, and a chunk costs at most
// (4·order+8)/(2·order+2) ≤ 8/3 bytes per byte of text, however many
// blank or comment lines it spans. A reused chunk gets an eighth of
// slack, so a slot settles on one after a few blocks.
//
//spblock:coldpath
func (b *tnsBlock) startChunk(order, lines, bytes int, retain bool) {
	need := min(lines, bytes/(2*order+2)+1)
	if retain || b.chunk.stride < need || len(b.chunk.idx) < order*b.chunk.stride {
		if !retain {
			need += need / 8
		}
		b.chunk = columnChunk{idx: make([]Index, order*need), val: make([]float64, need), stride: need}
	}
	if cap(b.maxCoord) < order {
		b.maxCoord = make([]Index, order)
	}
	b.maxCoord = b.maxCoord[:order]
	clear(b.maxCoord)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports, the
// separators of strings.Fields' ASCII path.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split records in b.fields the fields strings.Fields(string(raw))
// returns, maximal runs of runes that are not unicode.IsSpace, parsing
// the short digit runs on the way. ASCII bytes are tested inline; a
// rune is decoded only at a byte >= 0x80, where invalid UTF-8 counts
// as a field byte, as it does there.
//
//spblock:hotpath
func (b *tnsBlock) split(raw []byte) []tnsField {
	fs := b.fields[:0]
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
	b.fields = fs
	return fs
}

// comment handles a line whose first field starts with '#': a
// "# dims:" comment appends its lengths to the block's dims, placed
// after the nonzeros parsed so far; any other comment is ignored.
//
//spblock:coldpath
func (b *tnsBlock) comment(raw []byte, line int) error {
	rest, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "# dims:")
	if !ok {
		return nil
	}
	var err error
	for _, f := range strings.Fields(rest) {
		d, aerr := strconv.Atoi(f)
		if aerr != nil {
			err = fmt.Errorf("nmode: line %d: bad dims comment: %v", line, aerr)
			break
		}
		b.dims = append(b.dims, d)
	}
	if k := len(b.dimsAt); k > 0 && b.dimsAt[k-1].nnz == b.n {
		b.dimsAt[k-1].end = len(b.dims)
	} else {
		b.dimsAt = append(b.dimsAt, tnsDims{nnz: b.n, end: len(b.dims)})
	}
	return err
}

// tnsPipeline runs the parse of one input.
type tnsPipeline struct {
	r          io.Reader
	workers    int
	blockBytes int
	retain     bool // the consumer keeps every block's chunk
	blocks     []tnsBlock

	wg       sync.WaitGroup
	mu       sync.Mutex
	cond     sync.Cond // broadcast on every change of the fields below
	read     int       // blocks the reader has filled
	taken    int       // blocks workers have taken
	released int       // blocks the consumer has released
	readDone bool      // the reader has filled the last block
	stop     bool      // the consumer is done; the goroutines exit
	panicVal any       // a panic in the reader or a worker, re-raised by the consumer
}

// start allocates the slots and starts the reader, which starts a
// worker with each of the first `workers` blocks.
func (p *tnsPipeline) start() {
	p.blocks = make([]tnsBlock, 2*p.workers)
	for i := range p.blocks {
		b := &p.blocks[i]
		b.fields, b.maxCoord = b.fieldBuf[:0], b.maxBuf[:0]
	}
	p.cond.L = &p.mu
	p.wg.Add(1)
	go p.readBlocks()
}

// readBlocks cuts the input into blocks of whole lines. A line longer
// than a block grows the block to hold it; the partial line after a
// block's last '\n' starts the next block, copied from the slot it was
// read into, which only the reader writes. At the end of the input the
// last block holds the rest: at EOF a final unterminated line, after a
// read error only the whole lines before it, as bufio.Reader's line
// reading returns them.
func (p *tnsPipeline) readBlocks() {
	defer p.wg.Done()
	defer p.recoverPanic()
	size := min(tnsMinBlockBytes, p.blockBytes)
	var tail []byte
	lines := 0
	for seq := 0; ; seq++ {
		p.mu.Lock()
		for p.read-p.released == len(p.blocks) && !p.stop {
			p.cond.Wait()
		}
		stop := p.stop
		p.mu.Unlock()
		if stop {
			return
		}
		b := &p.blocks[seq%len(p.blocks)]
		buf, cut, err := p.fill(b.buf[:0], tail, size)
		b.readErr = nil
		if err == io.EOF {
			cut, err = len(buf), nil
			b.last = true
		} else if err != nil {
			b.readErr = fmt.Errorf("nmode: read: %w", err)
			b.last = true
		}
		b.buf, tail = buf[:cut], buf[cut:]
		b.line0, b.lines = lines, bytes.Count(b.buf, newline)
		lines += b.lines
		p.mu.Lock()
		p.read++
		p.readDone = b.last
		p.cond.Broadcast()
		p.mu.Unlock()
		if seq < p.workers {
			p.wg.Add(1)
			go p.parseBlocks()
		}
		if b.last {
			return
		}
		size = min(4*size, p.blockBytes)
	}
}

// fill reads into buf, after a copy of tail, until it holds size bytes
// and a '\n', or the input ends. It returns the buffer, the length of
// its whole lines, and the error that ended the input, if any.
func (p *tnsPipeline) fill(buf, tail []byte, size int) ([]byte, int, error) {
	limit := max(size, 2*len(tail))
	if cap(buf) < limit {
		buf = make([]byte, 0, limit)
	}
	buf = append(buf, tail...)
	empty := 0
	for {
		for len(buf) < limit {
			n, err := p.r.Read(buf[len(buf):limit])
			if n < 0 || n > limit-len(buf) {
				panic("nmode: reader returned an invalid count from Read")
			}
			buf = buf[:len(buf)+n]
			if err != nil {
				return buf, bytes.LastIndexByte(buf, '\n') + 1, err
			}
			if n > 0 {
				empty = 0
			} else if empty++; empty == maxEmptyReads {
				return buf, bytes.LastIndexByte(buf, '\n') + 1, io.ErrNoProgress
			}
		}
		if cut := bytes.LastIndexByte(buf, '\n') + 1; cut > 0 {
			return buf, cut, nil
		}
		limit *= 2
		buf = slices.Grow(buf, limit-len(buf))
	}
}

// parseBlocks parses blocks in the order the reader filled them until
// the input is exhausted or the consumer stops.
func (p *tnsPipeline) parseBlocks() {
	defer p.wg.Done()
	defer p.recoverPanic()
	for {
		p.mu.Lock()
		for p.taken == p.read && !p.readDone && !p.stop {
			p.cond.Wait()
		}
		if p.stop || p.taken == p.read {
			p.mu.Unlock()
			return
		}
		b := &p.blocks[p.taken%len(p.blocks)]
		p.taken++
		p.mu.Unlock()
		b.parse(p.retain)
		p.mu.Lock()
		b.parsed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// recoverPanic hands a panic in a pipeline goroutine to the consumer
// and stops the pipeline.
func (p *tnsPipeline) recoverPanic() {
	if v := recover(); v != nil {
		p.mu.Lock()
		if p.panicVal == nil {
			p.panicVal = v
		}
		p.stop = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// next waits until block seq, the next in input order, is parsed.
func (p *tnsPipeline) next(seq int) *tnsBlock {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := &p.blocks[seq%len(p.blocks)]
	for !b.parsed && p.panicVal == nil {
		p.cond.Wait()
	}
	if p.panicVal != nil {
		panic(p.panicVal)
	}
	return b
}

// release hands the consumer's block back to the reader.
func (p *tnsPipeline) release(b *tnsBlock) {
	p.mu.Lock()
	b.parsed = false
	p.released++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close stops the pipeline, waits for its goroutines and drops its
// slots. The input is not read after close returns.
func (p *tnsPipeline) close() {
	if p.blocks == nil {
		return
	}
	p.mu.Lock()
	p.stop = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	p.blocks = nil
}
