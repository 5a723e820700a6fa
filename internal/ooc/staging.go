// Package ooc is the out-of-core MTTKRP/CP-ALS execution path for
// tensors larger than RAM, following Nguyen et al.'s out-of-memory
// MTTKRP design: the paper's MB spatial blocks are the disk staging
// unit. Stage streams a FROSTT .tns file through one bounded-memory
// pass, partitioning nonzeros into grid blocks spilled to an on-disk
// staging format; Engine then runs MTTKRP with only a small working
// set of decoded blocks plus the factor matrices resident, refilled by
// a prefetch pipeline that overlaps IO and decode with kernel
// execution.
//
// The streamed product is bit-identical to the in-memory blocked
// executor's at any worker count: both visit each output row's blocks
// in ascending block id (the in-memory path walks root layers with
// blocks id-ordered inside each layer; a row belongs to exactly one
// layer), both build each block's CSF with the same call — the one
// nmode.Builder, over the block's nonzeros in input order with
// block-local keys and the same mode order — and both dispatch the same
// width-specialized fiber kernel. See DESIGN.md §14.
package ooc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"spblock/internal/nmode"
)

const (
	manifestFile = "manifest.json"
	blocksFile   = "blocks.dat"
	// manifestVersion is bumped on any staging-format change; Open
	// rejects directories staged by a different version.
	manifestVersion = 1
	// maxBlocks bounds the grid product, mirroring BuildBlocked's
	// sanity cap but tighter: staging keeps per-block bookkeeping.
	maxBlocks = 1 << 20
)

// BlockInfo locates one non-empty block's records inside blocks.dat.
type BlockInfo struct {
	// ID is the row-major flattening of the block coordinates — the
	// same id formula BuildBlocked uses, so staged ids and in-memory
	// block ids coincide.
	ID int `json:"id"`
	// NNZ is the block's stored nonzero count.
	NNZ int `json:"nnz"`
	// Off is the byte offset of the block's first record.
	Off int64 `json:"off"`
}

// Manifest describes a staged tensor: the shape, the blocking grid,
// and the id-ascending block directory. It is written as
// manifest.json next to blocks.dat, whose payload is the concatenation
// of every non-empty block's records in id order. A record is the
// block-local storage of one nonzero: order little-endian uint32
// coordinates (global, zero-based) followed by the float64 value bits.
// Records within a block preserve the input file's relative order —
// the property the stable CSF sort needs for bit-identity with the
// in-memory path.
type Manifest struct {
	Version int   `json:"version"`
	Dims    []int `json:"dims"`
	Grid    []int `json:"grid"`
	// NNZ is the total stored nonzero count (duplicates preserved,
	// exactly as ReadTNS stores them).
	NNZ int64 `json:"nnz"`
	// NormSq is Σv² accumulated in file order — the same summation
	// order the in-memory CP-ALS drivers use for ‖X‖², so the fit
	// trajectories agree bit for bit. It is persisted as IEEE 754 bits
	// (NormSqBits): a bit pattern survives JSON exactly and encodes
	// NaN/Inf, which encoding/json refuses as a float.
	NormSq     float64     `json:"-"`
	NormSqBits uint64      `json:"norm_sq_bits"`
	Blocks     []BlockInfo `json:"blocks"`
}

// Order returns the number of modes.
func (m *Manifest) Order() int { return len(m.Dims) }

// BlockDims returns the per-mode block edge lengths, ceil(dim/grid) —
// identical to nmode.BlockedTensor.BlockDims.
func (m *Manifest) BlockDims() []int {
	bd := make([]int, len(m.Dims))
	for i := range m.Dims {
		bd[i] = (m.Dims[i] + m.Grid[i] - 1) / m.Grid[i]
	}
	return bd
}

// recordBytes is the encoded size of one nonzero at the given order.
//
//spblock:hotpath
func recordBytes(order int) int { return 4*order + 8 }

// maxBlockNNZ returns the largest per-block nonzero count.
func (m *Manifest) maxBlockNNZ() int {
	mx := 0
	for _, b := range m.Blocks {
		if b.NNZ > mx {
			mx = b.NNZ
		}
	}
	return mx
}

// SlotBytes estimates the decoded in-memory footprint of one prefetch
// slot: every slot is pre-sized to the largest block so the
// steady-state pipeline never reallocates. This is the unit
// Options.BudgetBytes is divided by.
func (m *Manifest) SlotBytes() int64 {
	return slotFootprint(m.Order(), m.maxBlockNNZ(), slices.Max(m.BlockDims()))
}

// TotalBlockBytes is the decoded footprint of keeping every block
// resident at once — the denominator for "working-set budget as a
// fraction of the tensor". A budget of TotalBlockBytes or more keeps
// the whole tensor in flight; 25% keeps a quarter of the slots.
func (m *Manifest) TotalBlockBytes() int64 {
	return m.SlotBytes() * int64(len(m.Blocks))
}

// StageOptions configures Stage.
type StageOptions struct {
	// Grid is the blocking grid, one entry per mode; entries are
	// clamped to [1, dim] like the in-memory executors. nil defaults
	// to 4 per mode (clamped). The grid is part of the staged layout:
	// MTTKRP over the staged tensor is bit-identical to the in-memory
	// blocked executor run with this same grid.
	Grid []int
	// BufferBytes bounds the in-memory partition buffers during the
	// staging pass; when the buffered total exceeds it, every buffer
	// is appended to its block's spill file and released. Default
	// 32 MiB. The bound is on buffered payload, so staging memory
	// stays BufferBytes plus the parse pipeline's few MiB (and the
	// longest line), independent of tensor size.
	BufferBytes int64
}

// blockBuf is the staging-side state of one (possibly future) block.
type blockBuf struct {
	mem     []byte
	nnz     int
	spilled bool
}

// stager owns the single bounded-memory partitioning pass.
type stager struct {
	dir       string
	dims      []int
	grid      []int
	blockDims []int
	bufBytes  int64

	bufs     []*blockBuf
	buffered int64
	nnz      int64
	normSq   float64
	rec      []byte
}

// Stage streams the .tns file at tnsPath into the staging directory
// dir (created if needed), producing blocks.dat + manifest.json. The
// pass is bounded-memory: StageOptions.BufferBytes of partition
// buffers, spilled per block when full, plus the parse pipeline's
// slots: about 4 MiB of whole lines at any core count (more if a line
// is longer than a block) and their parsed nonzeros. When the file
// carries a "# dims:" comment before its first data line the tensor
// is staged in a single pass; otherwise a first scan derives the mode
// lengths from the maximum coordinates (exactly like ReadTNS) and a
// second pass partitions. Parsing is shared with ReadTNS via
// nmode.TNSStream, so the two paths accept identical inputs.
func Stage(tnsPath, dir string, opts StageOptions) (*Manifest, error) {
	f, err := os.Open(tnsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	st := nmode.NewTNSStream(f)
	defer st.Close()
	coords, val, err := st.Next()
	if err == io.EOF {
		declared := st.DeclaredDims()
		if declared == nil {
			return nil, fmt.Errorf("ooc: %w", nmode.ErrNoData)
		}
		s, err := newStager(dir, declared, opts)
		if err != nil {
			return nil, err
		}
		return s.finish()
	}
	if err != nil {
		return nil, err
	}

	order := len(coords)
	if declared := st.DeclaredDims(); len(declared) > 0 {
		// Dims known up front: single-pass staging.
		if len(declared) != order {
			return nil, fmt.Errorf("nmode: dims comment has %d modes, data has %d", len(declared), order)
		}
		s, err := newStager(dir, declared, opts)
		if err != nil {
			return nil, err
		}
		if err := s.add(coords, val); err != nil {
			return nil, err
		}
		for {
			coords, val, err = st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if err := s.add(coords, val); err != nil {
				return nil, err
			}
		}
		if d := st.DeclaredDims(); len(d) != order {
			return nil, fmt.Errorf("nmode: dims comment has %d modes, data has %d", len(d), order)
		}
		return s.finish()
	}

	// No dims comment yet: finish scanning to derive the shape, then
	// re-stream and partition.
	for {
		if _, _, err = st.Next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	var dims []int
	if declared := st.DeclaredDims(); declared != nil {
		if len(declared) != order {
			return nil, fmt.Errorf("nmode: dims comment has %d modes, data has %d", len(declared), order)
		}
		dims = declared
	} else {
		dims = make([]int, order)
		for m, mc := range st.MaxCoords() {
			dims[m] = int(mc)
		}
	}
	s, err := newStager(dir, dims, opts)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	st = nmode.NewTNSStream(f)
	defer st.Close()
	for {
		coords, val, err = st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := s.add(coords, val); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

func newStager(dir string, dims []int, opts StageOptions) (*stager, error) {
	order := len(dims)
	for m, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("ooc: mode %d has non-positive length %d", m, d)
		}
	}
	grid := opts.Grid
	if grid == nil {
		grid = make([]int, order)
		for m := range grid {
			grid[m] = 4
		}
	}
	if len(grid) != order {
		return nil, fmt.Errorf("ooc: grid %v for order-%d tensor", grid, order)
	}
	norm := make([]int, order)
	total := 1
	for m, g := range grid {
		if g < 1 {
			g = 1
		}
		if g > dims[m] {
			g = dims[m]
		}
		norm[m] = g
		total *= g
		if total > maxBlocks {
			return nil, fmt.Errorf("ooc: grid %v yields more than %d blocks", grid, maxBlocks)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stager{
		dir:       dir,
		dims:      append([]int(nil), dims...),
		grid:      norm,
		blockDims: make([]int, order),
		bufBytes:  opts.BufferBytes,
		bufs:      make([]*blockBuf, total),
		rec:       make([]byte, recordBytes(order)),
	}
	if s.bufBytes <= 0 {
		s.bufBytes = 32 << 20
	}
	for m := range dims {
		s.blockDims[m] = (dims[m] + norm[m] - 1) / norm[m]
	}
	return s, nil
}

// add partitions one nonzero into its block buffer, spilling all
// buffers to disk when the in-memory bound is exceeded.
func (s *stager) add(coords []nmode.Index, val float64) error {
	id := 0
	off := 0
	for m, c := range coords {
		if int(c) >= s.dims[m] {
			return fmt.Errorf("%w: entry %d mode %d coordinate %d outside [0,%d)",
				nmode.ErrBadTensor, s.nnz, m, c, s.dims[m])
		}
		id = id*s.grid[m] + int(c)/s.blockDims[m]
		binary.LittleEndian.PutUint32(s.rec[off:], uint32(c))
		off += 4
	}
	binary.LittleEndian.PutUint64(s.rec[off:], math.Float64bits(val))
	b := s.bufs[id]
	if b == nil {
		b = &blockBuf{}
		s.bufs[id] = b
	}
	b.mem = append(b.mem, s.rec...)
	b.nnz++
	s.buffered += int64(len(s.rec))
	s.nnz++
	s.normSq += val * val
	if s.buffered > s.bufBytes {
		return s.spillAll()
	}
	return nil
}

func (s *stager) spillPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("spill-%d.bin", id))
}

// spillAll appends every buffered partition to its block's spill file
// and releases the buffers. Files are opened and closed per flush so
// the descriptor count stays O(1) regardless of the block count.
func (s *stager) spillAll() error {
	for id, b := range s.bufs {
		if b == nil || len(b.mem) == 0 {
			continue
		}
		f, err := os.OpenFile(s.spillPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(b.mem); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		b.spilled = true
		b.mem = b.mem[:0]
	}
	s.buffered = 0
	return nil
}

// finish concatenates the partitions into blocks.dat in block-id order
// (spilled bytes first, then the in-memory remainder — together the
// file order of the block's records), removes the spill files, and
// writes the manifest.
func (s *stager) finish() (*Manifest, error) {
	man := &Manifest{
		Version:    manifestVersion,
		Dims:       s.dims,
		Grid:       s.grid,
		NNZ:        s.nnz,
		NormSq:     s.normSq,
		NormSqBits: math.Float64bits(s.normSq),
		Blocks:     []BlockInfo{},
	}
	out, err := os.Create(filepath.Join(s.dir, blocksFile))
	if err != nil {
		return nil, err
	}
	var off int64
	for id, b := range s.bufs {
		if b == nil || b.nnz == 0 {
			continue
		}
		if b.spilled {
			sp, err := os.Open(s.spillPath(id))
			if err != nil {
				out.Close()
				return nil, err
			}
			n, err := io.Copy(out, sp)
			sp.Close()
			if err != nil {
				out.Close()
				return nil, err
			}
			if err := os.Remove(s.spillPath(id)); err != nil {
				out.Close()
				return nil, err
			}
			off += n
		}
		if len(b.mem) > 0 {
			if _, err := out.Write(b.mem); err != nil {
				out.Close()
				return nil, err
			}
			off += int64(len(b.mem))
		}
		man.Blocks = append(man.Blocks, BlockInfo{
			ID:  id,
			NNZ: b.nnz,
			Off: off - int64(b.nnz)*int64(recordBytes(len(s.dims))),
		})
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(s.dir, manifestFile), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return man, nil
}

// LoadManifest reads and validates a staged directory's manifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("ooc: bad manifest: %v", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("ooc: manifest version %d, want %d", man.Version, manifestVersion)
	}
	order := len(man.Dims)
	if order < 2 || len(man.Grid) != order {
		return nil, fmt.Errorf("ooc: malformed manifest shape dims=%v grid=%v", man.Dims, man.Grid)
	}
	for m := 0; m < order; m++ {
		if man.Dims[m] <= 0 || man.Grid[m] < 1 || man.Grid[m] > man.Dims[m] {
			return nil, fmt.Errorf("ooc: malformed manifest shape dims=%v grid=%v", man.Dims, man.Grid)
		}
	}
	rec := int64(recordBytes(order))
	var nnz int64
	prevEnd := int64(0)
	prevID := -1
	for _, b := range man.Blocks {
		if b.ID <= prevID || b.NNZ <= 0 || b.Off != prevEnd {
			return nil, fmt.Errorf("ooc: malformed block directory at id %d", b.ID)
		}
		prevID = b.ID
		prevEnd = b.Off + int64(b.NNZ)*rec
		nnz += int64(b.NNZ)
	}
	if nnz != man.NNZ {
		return nil, fmt.Errorf("ooc: manifest nnz %d but blocks sum to %d", man.NNZ, nnz)
	}
	man.NormSq = math.Float64frombits(man.NormSqBits)
	return &man, nil
}
