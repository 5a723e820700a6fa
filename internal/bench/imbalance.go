package bench

import (
	"fmt"
	"runtime"

	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/nmode"
)

// imbalanceRank is the decomposition rank the scheduler comparison runs
// at; imbalanceStrip is the rank-blocking strip width. Strips multiply
// the per-fiber cost (every strip walks every fiber again), which is
// what makes fiber-density skew visible as time skew.
const (
	imbalanceRank  = 32
	imbalanceStrip = 8
)

// skewedTensorN builds a deterministically skewed order-4 tensor: the
// low half of mode 0 carries clustered, dense-fibered nonzeros (about
// 20k fibers of 6 leaves, so the per-nonzero cost is dominated by the
// strip walk), the high half carries a near-uniform scatter of about
// 114k fibers, 95% of them singletons. A singleton skips the register
// kernel (nmode's short-fiber path) but still loads a scale row of its
// own for its one nonzero and is walked as a fiber of its own per rank
// strip, so on one worker the scatter half takes about twice the dense
// half's time. Both halves hold the same nonzero count, so nnz-balanced
// contiguous shares, the paper's static split, put the cheap half on
// one worker and the expensive half on another — a time imbalance that no
// cluster-placement seed can average away, which is the regime work
// stealing exists for.
func skewedTensorN(cfg Config) (*nmode.Tensor, error) {
	// The dense half lives on deliberately compact dims: the cluster
	// boxes must hold far more nonzeros than they have (i,j,k) fiber
	// prefixes, or the "dense" fibers degenerate into singletons too.
	denseDims := []int{32, 32, 30, 64}
	scatterDims := []int{128, 192, 160, 64}
	nnz := 240_000
	if cfg.Scale != 1 {
		f := cfg.Scale
		if f > 1 {
			f = 1
		}
		scaleDims := func(dims []int) {
			for m := range dims {
				if d := int(float64(dims[m]) * f); d >= 16 {
					dims[m] = d
				} else {
					dims[m] = 16
				}
			}
		}
		scaleDims(denseDims)
		scaleDims(scatterDims)
		if v := int(float64(nnz) * cfg.Scale); v >= 4000 {
			nnz = v
		} else {
			nnz = 4000
		}
	}
	half := nnz / 2
	dense, err := gen.ClusteredN(gen.ClusteredNParams{
		Dims:        denseDims,
		NNZ:         half,
		Clusters:    2,
		ClusterFrac: 0.99,
		ClusterSide: 0.6,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	scatter, err := gen.PoissonN(gen.PoissonNParams{
		Dims:       scatterDims,
		Events:     half,
		Components: 64,
		Spread:     1,
	}, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	merged := nmode.NewTensor(
		[]int{denseDims[0] + scatterDims[0],
			max(denseDims[1], scatterDims[1]),
			max(denseDims[2], scatterDims[2]),
			max(denseDims[3], scatterDims[3])},
		dense.NNZ()+scatter.NNZ(),
	)
	coord := make([]nmode.Index, 4)
	for p := 0; p < dense.NNZ(); p++ {
		merged.Append(dense.Coord(p, coord), dense.Val[p])
	}
	off := nmode.Index(denseDims[0])
	for p := 0; p < scatter.NNZ(); p++ {
		scatter.Coord(p, coord)
		coord[0] += off
		merged.Append(coord, scatter.Val[p])
	}
	if _, err := merged.Dedup(); err != nil {
		return nil, err
	}
	return merged, nil
}

// Imbalance measures the work-stealing scheduler (internal/sched) on
// the skewed tensor above, where nnz-balanced contiguous shares are
// strongly time-imbalanced. Each row is one rank-blocked mode-0
// executor: a 1-worker reference, then the stealing run on the
// configured workers, with its ns/run over the timed window, the
// measured max/mean worker busy time, the stolen-chunk count, and the
// speedup over the 1-worker row.
func Imbalance(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One worker has nothing to balance; the comparison needs at least
	// two even in the quick configuration.
	if workers < 2 {
		workers = 2
	}
	x, err := skewedTensorN(cfg)
	if err != nil {
		return nil, err
	}
	n := x.Order()
	factors := make([]*la.Matrix, n)
	for m := 1; m < n; m++ {
		factors[m] = randomMatrix(x.Dims[m], imbalanceRank, cfg.Seed+int64(m))
	}
	out := la.NewMatrix(x.Dims[0], imbalanceRank)

	t := &Table{
		Title: "Work stealing on a skewed clustered tensor, against one worker",
		Note: fmt.Sprintf("tensor %v nnz=%d (dense-fiber low half, singleton high half), rank %d strip %d, gomaxprocs %d; imbalance = max/mean worker busy time over the timed window",
			x.Dims, x.NNZ(), imbalanceRank, imbalanceStrip, runtime.GOMAXPROCS(0)),
		Header: []string{"sched", "workers", "ns/run", "imbalance", "steals", "speedup"},
	}
	var refNS int64
	for _, w := range []int{1, workers} {
		exec, err := nmode.NewExecutor(x, 0, nmode.Options{RankBlockCols: imbalanceStrip, Workers: w})
		if err != nil {
			return nil, err
		}
		if err := exec.Run(factors, out); err != nil { // warm-up
			return nil, err
		}
		exec.Metrics().Reset() // counters cover exactly the timed window
		var runErr error
		sec := TimeBest(cfg.Reps, func() {
			if err := exec.Run(factors, out); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, runErr
		}
		ns := int64(sec * 1e9)
		name, speedup := "steal", "-"
		if w == 1 {
			name, refNS = "sequential", ns
		} else if ns > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(refNS)/float64(ns))
		}
		snap := exec.Metrics().Snapshot()
		t.Add(
			name,
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", ns),
			fmt.Sprintf("%.3f", snap.Imbalance()),
			fmt.Sprintf("%d", snap.Steals()),
			speedup,
		)
	}
	return t, nil
}
