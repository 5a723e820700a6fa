package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spblock"
	"spblock/internal/als"
	"spblock/internal/cpd"
	"spblock/internal/gen"
	"spblock/internal/ooc"
)

// The ooc-stream workload stages an order-4 Poisson tensor (the shape
// of the repository's out-of-core experiment) to on-disk MB blocks and
// streams CP-ALS through a working set of a quarter of the staged
// blocks with two decoders. A job is one CPALSOOC call of oocSweeps
// sweeps on the opened engine; an upload is the ooc.Stage of the input
// that every set-up makes (uploads happen only in the set-up rounds).
const (
	oocRank     = 32
	oocSweeps   = 1
	oocBudget   = 0.25
	oocDecoders = 2
)

var (
	oocDims = []int{96, 72, 60, 48}
	oocGrid = []int{3, 2, 2, 2}
)

func genOOC(cfg config) error {
	dims := append([]int(nil), oocDims...)
	events := 400_000
	if cfg.scale < 1 {
		f := math.Sqrt(math.Sqrt(cfg.scale))
		for m := range dims {
			dims[m] = max(int(float64(dims[m])*f), 12)
		}
		events = max(int(float64(events)*cfg.scale), 4000)
	}
	x, err := gen.PoissonN(gen.PoissonNParams{Dims: dims, Events: events, Components: 48, Spread: 1}, cfg.seed)
	if err != nil {
		return err
	}
	return spblock.SaveTNSN(filepath.Join(cfg.dir, "x.tns"), x)
}

func runOOC(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	path := filepath.Join(cfg.dir, "x.tns")
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	// Set-up: stage the input and open the streaming engine.
	var e *ooc.Engine
	defer func() {
		if e != nil {
			e.Close()
		}
	}()
	var setupS, stageS []float64
	setup := func() error {
		if e != nil {
			e.Close()
			e = nil
		}
		runtime.GC()
		dir := filepath.Join(cfg.dir, fmt.Sprintf("staged%d", len(setupS)))
		root := tr.begin("setup", "", -1)
		t0 := time.Now()
		id := tr.begin("ooc.stage", "ooc", root)
		man, err := ooc.Stage(path, dir, ooc.StageOptions{Grid: oocGrid})
		tr.end(id)
		t1 := time.Now()
		if err == nil {
			id = tr.begin("ooc.open", "ooc", root)
			e, err = ooc.Open(dir, ooc.Options{
				BudgetBytes: int64(oocBudget * float64(man.TotalBlockBytes())),
				Decoders:    oocDecoders,
			})
			tr.end(id)
		}
		t2 := time.Now()
		tr.end(root)
		res.op(err)
		if err != nil {
			return err
		}
		setupS = append(setupS, t2.Sub(t0).Seconds())
		stageS = append(stageS, t1.Sub(t0).Seconds())
		return nil
	}
	if err := setupRound(setup); err != nil {
		return nil, err
	}

	if err := startPeak(); err != nil {
		return nil, err
	}
	opts := cpd.OOCOptions{Rank: oocRank, MaxIters: checkSweeps, Tol: fixedTol, Seed: cfg.seed}
	ref, err := cpd.CPALSOOC(e, opts)
	res.op(err)
	if err != nil {
		return nil, fmt.Errorf("warm-up decomposition: %w", err)
	}
	checkFits(res, ref.Fits, checkSweeps)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	order := len(e.Dims())
	before := make([]spblock.KernelSnapshot, order)
	for m := range before {
		before[m] = e.Metrics(m).Snapshot()
	}
	opts.MaxIters = oocSweeps
	dec := decompositions{tr: tr, sweeps: oocSweeps}
	start, deadline := startWindow(cfg)
	for n := 0; n < minJobs(tr) || time.Now().Before(deadline); n++ {
		var fits []float64
		if tr != nil && n%2 == 1 {
			fits, err = dec.traced(func(parent int) (*als.Result, error) {
				k := &tracedKernel{dims: e.Dims(), run: e.MTTKRP, tr: tr, parent: parent, layer: "ooc", prefix: "ooc.mttkrp.mode"}
				return als.Run(k, als.Config{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Seed: opts.Seed,
					NormX: math.Sqrt(e.NormSq()), ErrPrefix: "cpd"})
			})
		} else {
			fits, err = dec.untraced(func() ([]float64, error) {
				r, err := cpd.CPALSOOC(e, opts)
				if err != nil {
					return nil, err
				}
				return r.Fits, nil
			})
		}
		res.op(err)
		if err == nil {
			res.check(len(fits) == oocSweeps && math.Float64bits(fits[0]) == math.Float64bits(ref.Fits[0]),
				"job %d fits %v do not reproduce the warm-up's first fit %v", n, fits, ref.Fits[0])
		}
	}
	window := time.Since(start).Seconds()
	var wallNS, ioWaitNS, prefetchNS, overlapNS float64
	for m := 0; m < order; m++ {
		a, b := e.Metrics(m).Snapshot(), before[m]
		wallNS += float64(a.WallNS - b.WallNS)
		ioWaitNS += float64(a.IOWaitNS - b.IOWaitNS)
		p := float64(a.PrefetchTotalNS() - b.PrefetchTotalNS())
		prefetchNS += p
		overlapNS += math.Max(p-float64(a.IOWaitNS-b.IOWaitNS), 0)
	}

	// The streamed warm-up decomposition must be bit-identical to the
	// in-memory one on the same blocking grid.
	t0 := time.Now()
	x, err := spblock.LoadTNSN(path)
	parseS := time.Since(t0).Seconds()
	res.op(err)
	if err == nil {
		want, err := spblock.CPALSN(x, spblock.CPNOptions{Rank: oocRank, MaxIters: checkSweeps, Tol: fixedTol, Seed: cfg.seed,
			Kernel: spblock.OptionsN{Grid: oocGrid, Workers: 2}})
		res.op(err)
		if err == nil {
			if cfg.perturb {
				ref.Factors[0].Data[0] = math.Nextafter(ref.Factors[0].Data[0], math.Inf(1))
			}
			res.check(sameNResult(want, ref), "streamed CP-ALS is not bit-identical to in-memory CPALSN")
		}
	}
	if err := setupRound(setup); err != nil {
		return nil, err
	}

	res.set("setup_s", median(setupS))
	res.set("upload_ms.p50", 1e3*median(stageS))
	res.set("peak_rss_mb", rss)
	dec.reportE2E(res, window)

	sweeps := float64(dec.jobs() * oocSweeps)
	res.set("tensor.parse_s", parseS)
	res.set("tensor.parse_mb_per_s", ratio(float64(st.Size())/1e6, parseS))
	res.set("ooc.stage_s", median(stageS))
	var oocS float64
	for m := 0; m < order; m++ {
		oocS += sum(tr.durations(fmt.Sprintf("ooc.mttkrp.mode%d", m)))
	}
	res.set("ooc.mttkrp_s", ratio(oocS, float64(len(dec.tracedS)*oocSweeps)))
	res.set("ooc.io_wait_frac", ratio(ioWaitNS, wallNS))
	res.set("ooc.prefetch_s", ratio(prefetchNS/1e9, sweeps))
	res.set("ooc.overlap_frac", ratio(overlapNS, prefetchNS))
	res.set("ooc.working_set_mb", float64(e.WorkingSetBytes())/1e6)
	dec.reportLayers(res)
	res.notef("order-%d tensor %v, grid %v, %d of %d blocks resident, %d decoders, rank %d, %d jobs in %.2f s",
		order, e.Dims(), oocGrid, e.Depth(), e.NumBlocks(), e.Decoders(), oocRank, dec.jobs(), window)
	return res, nil
}

// sameNResult compares two decompositions bit for bit.
func sameNResult(a, b *spblock.CPNResult) bool {
	if a.Iters != b.Iters || len(a.Fits) != len(b.Fits) || len(a.Factors) != len(b.Factors) {
		return false
	}
	for i := range a.Fits {
		if math.Float64bits(a.Fits[i]) != math.Float64bits(b.Fits[i]) {
			return false
		}
	}
	for m := range a.Factors {
		for i, v := range a.Factors[m].Data {
			if math.Float64bits(v) != math.Float64bits(b.Factors[m].Data[i]) {
				return false
			}
		}
	}
	return true
}
