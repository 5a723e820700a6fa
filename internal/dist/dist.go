// Package dist implements the distributed MTTKRP of Sec. VI-D: the
// medium-grained (3D) decomposition used by distributed SPLATT as the
// baseline, and the paper's 4D partitioning that first splits the
// processors into t rank-groups (each holding a full tensor replica and
// computing R/t factor columns) and then applies the medium-grained
// decomposition inside each group.
//
// Ranks execute on the in-process MPI runtime (internal/mpi): factor
// chunks really move between ranks through collectives, partial outputs
// are really reduce-scattered, and the result is verified against the
// shared-memory kernels. Per-rank compute is measured serially;
// communication time is modeled from the actual byte volumes with an
// α-β cost model (see the mpi package for why).
package dist

import (
	"fmt"
	"sort"
	"sync"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/partition"
	"spblock/internal/tensor"
)

// Config describes one distributed MTTKRP execution.
type Config struct {
	// Ranks is the total process count p (the paper runs 2 per node).
	Ranks int
	// RankParts is t of the 4D partitioning; 1 selects the plain
	// medium-grained (3D) decomposition.
	RankParts int
	// Plan is the local kernel each rank runs on its tensor block
	// (SPLATT for the baseline, MB/MB+RankB for "our" rows of
	// Table III). Grid is interpreted relative to the local block.
	Plan core.Plan
	// Model prices the communication.
	Model mpi.CostModel
	// Faults optionally injects seeded faults under the collectives
	// (see mpi.FaultPlan). Nil — or an unarmed plan — is a perfect
	// network: execution and stats are bit-identical to a run without
	// the fault layer.
	Faults *mpi.FaultPlan
}

// Result reports one distributed execution.
type Result struct {
	// Grid is the processor grid actually used (Inner × RankParts).
	Grid partition.Grid4
	// Stats carries per-rank measured compute and modeled comm time.
	Stats mpi.RunStats
	// ModeledSeconds is max over ranks of compute+comm.
	ModeledSeconds float64
	// Out is the assembled global mode-1 MTTKRP result (I × R),
	// gathered out-of-band for verification.
	Out *la.Matrix
	// MaxRankNNZ / MinRankNNZ summarise load balance.
	MaxRankNNZ, MinRankNNZ int
}

// block is one rank's tensor portion with localised coordinates.
type block struct {
	coo           *nmode.Tensor
	xlo, ylo, zlo int
	xhi, yhi, zhi int
}

// blockRunner is the per-block kernel interface: one mode-0 MTTKRP
// over a rank's local tensor block. Production blocks are mode-0
// nmode.Executors; tests substitute poisoned runners to exercise the
// rank-error path.
type blockRunner interface {
	Run(factors []*la.Matrix, out *la.Matrix) error
}

// Engine owns the distributed setup for one tensor orientation at one
// rank: the 3D/4D grid, the greedy chunk boundaries, and one local
// executor per tensor block. The setup cost is paid once and amortised
// over the 10–1000s of MTTKRP calls of a CPD run, exactly like the
// shared-memory preprocessing; Run executes one distributed MTTKRP
// against the current factor matrices.
type Engine struct {
	cfg    Config
	dims   []int
	rank   int
	grid   partition.Grid4
	strips []int
	innerP int
	tParts int
	bounds [3][]int
	execs  []blockRunner

	maxNNZ, minNNZ int
}

// NewEngine partitions the third-order tensor t for rank-R factors
// under cfg.
func NewEngine(t *nmode.Tensor, rank int, cfg Config) (*Engine, error) {
	if err := tensor.CheckOrder3(t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if rank <= 0 {
		return nil, fmt.Errorf("dist: rank must be positive, got %d", rank)
	}
	p := cfg.Ranks
	tParts := cfg.RankParts
	if tParts <= 0 {
		tParts = 1
	}
	grid, err := partition.NewGrid4(p, tParts, rank, t.Dims)
	if err != nil {
		return nil, err
	}
	strips, err := partition.RankStrips(rank, tParts)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		dims:   t.Dims,
		rank:   rank,
		grid:   grid,
		strips: strips,
		innerP: p / tParts,
		tParts: tParts,
	}
	q, rr, s := grid.Inner[0], grid.Inner[1], grid.Inner[2]

	// Chunk each mode by nonzero weight (the medium-grained greedy
	// boundaries). All rank groups share the same partition because
	// they replicate the same tensor.
	for m, parts := range []int{q, rr, s} {
		w, err := partition.SliceWeights(t, m)
		if err != nil {
			return nil, err
		}
		e.bounds[m], err = partition.Chunk(w, parts)
		if err != nil {
			return nil, err
		}
	}

	blocks, err := buildBlocks(t, e.bounds)
	if err != nil {
		return nil, err
	}
	opts, err := cfg.Plan.Options()
	if err != nil {
		return nil, err
	}
	e.execs = make([]blockRunner, e.innerP)
	e.minNNZ = -1
	for idx, blk := range blocks {
		nnz := 0
		if blk.coo != nil {
			nnz = blk.coo.NNZ()
		}
		if nnz > e.maxNNZ {
			e.maxNNZ = nnz
		}
		if e.minNNZ < 0 || nnz < e.minNNZ {
			e.minNNZ = nnz
		}
		if nnz == 0 {
			continue
		}
		exec, err := nmode.NewExecutor(blk.coo, 0, opts)
		if err != nil {
			return nil, fmt.Errorf("dist: block %d: %w", idx, err)
		}
		e.execs[idx] = exec
	}
	return e, nil
}

// MTTKRP partitions t and runs one distributed mode-1 MTTKRP
// A = X₍₁₎(B ⊙ C). Repeated products over the same tensor should build
// a NewEngine and call Run.
func MTTKRP(t *nmode.Tensor, b, c *la.Matrix, cfg Config) (*Result, error) {
	if b.Cols != c.Cols {
		return nil, fmt.Errorf("dist: rank mismatch: B has %d cols, C %d", b.Cols, c.Cols)
	}
	if b.Cols <= 0 {
		return nil, fmt.Errorf("dist: rank must be positive, got %d", b.Cols)
	}
	e, err := NewEngine(t, b.Cols, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(b, c)
}

// Run executes one distributed MTTKRP against the engine's setup.
func (eng *Engine) Run(b, c *la.Matrix) (*Result, error) {
	r := eng.rank
	if b.Cols != r || c.Cols != r {
		return nil, fmt.Errorf("dist: factor rank mismatch (%d, %d), engine built for %d",
			b.Cols, c.Cols, r)
	}
	if b.Rows != eng.dims[1] || c.Rows != eng.dims[2] {
		return nil, fmt.Errorf("dist: factor shapes do not match tensor %v", eng.dims)
	}
	p := eng.cfg.Ranks
	tParts := eng.tParts
	innerP := eng.innerP
	strips := eng.strips
	bounds := eng.bounds
	execs := eng.execs
	grid := eng.grid
	rr, s := grid.Inner[1], grid.Inner[2]

	out := la.NewMatrix(eng.dims[0], r)
	var outMu sync.Mutex

	stats, err := mpi.RunWithFaults(p, eng.cfg.Model, eng.cfg.Faults, func(comm *mpi.Comm) error {
		g := comm.Rank() / innerP // rank group (4D dimension)
		inner := comm.Rank() % innerP
		x := inner / (rr * s)
		y := (inner / s) % rr
		z := inner % s
		colLo, colHi := strips[g], strips[g+1]
		w := colHi - colLo

		// Sub-communicators:
		//  - bComm: ranks of this group sharing the mode-2 chunk y
		//    (they co-own the B chunk and allgather it);
		//  - cComm: ranks of this group sharing the mode-3 chunk z;
		//  - aComm: ranks of this group sharing the mode-1 chunk x
		//    (they reduce-scatter the partial A chunk);
		//  - gComm: same inner position across rank groups (the 4D
		//    AllGather along the rank dimension).
		bColor, cColor, aColor, gColor := subCommColors(g, x, y, z, inner, p, tParts)
		bComm, err := comm.Split(bColor, inner)
		if err != nil {
			return err
		}
		cComm, err := comm.Split(cColor, inner)
		if err != nil {
			return err
		}
		aComm, err := comm.Split(aColor, inner)
		if err != nil {
			return err
		}
		gComm, err := comm.Split(gColor, g)
		if err != nil {
			return err
		}

		// Gather the B chunk (rows bounds[1][y] .. bounds[1][y+1],
		// columns of this group's strip) from its co-owners.
		bChunk, err := gatherChunk(bComm, b, bounds[1][y], bounds[1][y+1], colLo, colHi)
		if err != nil {
			return err
		}
		cChunk, err := gatherChunk(cComm, c, bounds[2][z], bounds[2][z+1], colLo, colHi)
		if err != nil {
			return err
		}

		// Local compute: partial A rows for chunk x over the strip. A
		// failing block executor surfaces as this rank's error from Run —
		// never a panic.
		xRows := bounds[0][x+1] - bounds[0][x]
		partial := la.NewMatrix(max(xRows, 1), w)
		if execs[inner] != nil {
			e := execs[inner]
			if err := comm.TimeCompute(func() error {
				return e.Run([]*la.Matrix{nil, bChunk, cChunk}, partial)
			}); err != nil {
				return fmt.Errorf("dist: rank %d block executor: %w", comm.Rank(), err)
			}
		}

		// Reduce-scatter the partial A chunk among the ranks sharing x.
		flat := flattenRows(partial, xRows)
		counts, rowBounds := ownedCounts(xRows, aComm.Size(), w)
		mine, err := aComm.ReduceScatter(flat, counts)
		if err != nil {
			return err
		}
		myRowLo := bounds[0][x] + rowBounds[aComm.Rank()]
		myRows := rowBounds[aComm.Rank()+1] - rowBounds[aComm.Rank()]

		// 4D: assemble the full rank for owned rows across the rank
		// groups — "this method requires an extra AllGather operation
		// compared to the medium-grained decomposition" (Sec. VI-D).
		fullRows := mine
		if tParts > 1 {
			parts, err := gComm.Allgatherv(mine)
			if err != nil {
				return err
			}
			fullRows = make([]float64, myRows*r)
			for gg, part := range parts {
				lo := strips[gg]
				ww := strips[gg+1] - strips[gg]
				for row := 0; row < myRows; row++ {
					copy(fullRows[row*r+lo:row*r+lo+ww], part[row*ww:(row+1)*ww])
				}
			}
		}

		// Deposit owned rows into the verification output (out of
		// band, not part of the modeled iteration). With t > 1 every
		// group holds identical full rows; group 0 deposits.
		if g == 0 {
			outMu.Lock()
			for row := 0; row < myRows; row++ {
				if tParts > 1 {
					copy(out.Row(myRowLo+row), fullRows[row*r:(row+1)*r])
				} else {
					copy(out.Row(myRowLo + row)[colLo:colHi], fullRows[row*w:(row+1)*w])
				}
			}
			outMu.Unlock()
		}
		return nil
	})
	// On error the Result still carries the grid and the (partial) run
	// stats, so drivers can account retries/timeouts and identify
	// crashed ranks before degrading; Out is only valid when err is nil.
	res := &Result{
		Grid:           grid,
		Stats:          stats,
		ModeledSeconds: stats.ModeledSeconds(),
		Out:            out,
		MaxRankNNZ:     eng.maxNNZ,
		MinRankNNZ:     eng.minNNZ,
	}
	return res, err
}

// subCommColors derives the four sub-communicator colors for one rank
// of the 4D decomposition. The color spaces are provably disjoint: with
// stride = tParts*p, kind k occupies [k*stride, (k+1)*stride) and
// within a kind the color is g*p + coord with g < tParts and every
// coordinate (x, y, z, inner) < innerP <= p, so distinct (kind, group,
// coordinate) triples never collide — unlike the former g*1000-based
// scheme, which merged communicators once an inner grid dimension
// reached 500 (and collided with the cross-group color for large
// grids).
func subCommColors(g, x, y, z, inner, p, tParts int) (bColor, cColor, aColor, gColor int) {
	stride := tParts * p
	bColor = 0*stride + g*p + y
	cColor = 1*stride + g*p + z
	aColor = 2*stride + g*p + x
	gColor = 3*stride + inner
	return bColor, cColor, aColor, gColor
}

// buildBlocks partitions t into the q×r×s blocks of one rank group,
// localising coordinates so each block's factors are compact chunks.
func buildBlocks(t *nmode.Tensor, bounds [3][]int) ([]*block, error) {
	q := len(bounds[0]) - 1
	r := len(bounds[1]) - 1
	s := len(bounds[2]) - 1
	blocks := make([]*block, q*r*s)
	for x := 0; x < q; x++ {
		for y := 0; y < r; y++ {
			for z := 0; z < s; z++ {
				idx := (x*r+y)*s + z
				blocks[idx] = &block{
					xlo: bounds[0][x], xhi: bounds[0][x+1],
					ylo: bounds[1][y], yhi: bounds[1][y+1],
					zlo: bounds[2][z], zhi: bounds[2][z+1],
				}
			}
		}
	}
	locate := func(bs []int, v int) int {
		// Find the chunk containing v: the last boundary <= v.
		return sort.Search(len(bs)-1, func(i int) bool { return bs[i+1] > v })
	}
	is, js, ks := t.Idx[0], t.Idx[1], t.Idx[2]
	var local [3]nmode.Index
	for pnt := 0; pnt < t.NNZ(); pnt++ {
		x := locate(bounds[0], int(is[pnt]))
		y := locate(bounds[1], int(js[pnt]))
		z := locate(bounds[2], int(ks[pnt]))
		blk := blocks[(x*r+y)*s+z]
		if blk.coo == nil {
			dims := []int{
				max(blk.xhi-blk.xlo, 1),
				max(blk.yhi-blk.ylo, 1),
				max(blk.zhi-blk.zlo, 1),
			}
			blk.coo = nmode.NewTensor(dims, 16)
		}
		local = [3]nmode.Index{
			is[pnt] - nmode.Index(blk.xlo),
			js[pnt] - nmode.Index(blk.ylo),
			ks[pnt] - nmode.Index(blk.zlo),
		}
		blk.coo.Append(local[:], t.Val[pnt])
	}
	return blocks, nil
}

// gatherChunk assembles factor rows [rowLo, rowHi) × cols [colLo, colHi)
// by allgathering each co-owner's share. The share boundaries split the
// chunk rows evenly over the sub-communicator in rank order.
func gatherChunk(comm *mpi.Comm, m *la.Matrix, rowLo, rowHi, colLo, colHi int) (*la.Matrix, error) {
	rows := rowHi - rowLo
	w := colHi - colLo
	pSub := comm.Size()
	bound := evenBounds(rows, pSub)
	meLo, meHi := bound[comm.Rank()], bound[comm.Rank()+1]
	mine := make([]float64, 0, (meHi-meLo)*w)
	for row := meLo; row < meHi; row++ {
		mine = append(mine, m.Data[(rowLo+row)*m.Stride+colLo:(rowLo+row)*m.Stride+colHi]...)
	}
	parts, err := comm.Allgatherv(mine)
	if err != nil {
		return nil, err
	}
	chunk := la.NewMatrix(max(rows, 1), w)
	row := 0
	for _, part := range parts {
		n := len(part) / max(w, 1)
		for pr := 0; pr < n; pr++ {
			copy(chunk.Row(row), part[pr*w:(pr+1)*w])
			row++
		}
	}
	return chunk, nil
}

// ownedCounts splits `rows` rows of width w among pSub ranks, returning
// the flat element counts per rank and the row boundaries.
func ownedCounts(rows, pSub, w int) (counts []int, rowBounds []int) {
	rowBounds = evenBounds(rows, pSub)
	counts = make([]int, pSub)
	for i := 0; i < pSub; i++ {
		counts[i] = (rowBounds[i+1] - rowBounds[i]) * w
	}
	return counts, rowBounds
}

// evenBounds splits n items into p nearly equal contiguous ranges.
func evenBounds(n, p int) []int {
	b := make([]int, p+1)
	for i := 0; i <= p; i++ {
		b[i] = i * n / p
	}
	return b
}

// flattenRows copies the first `rows` rows of m into a flat slice.
func flattenRows(m *la.Matrix, rows int) []float64 {
	out := make([]float64, rows*m.Cols)
	for i := 0; i < rows; i++ {
		copy(out[i*m.Cols:(i+1)*m.Cols], m.Row(i))
	}
	return out
}
