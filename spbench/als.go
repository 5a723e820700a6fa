package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spblock"
	"spblock/internal/als"
	"spblock/internal/la"
)

// alsWorkload is an in-memory CP-ALS decomposition of one generated
// Table II tensor with a fixed plan. A job is one CPALSEngine call of
// `sweeps` sweeps on a prebuilt multi-mode engine; an upload is the
// LoadTNS of the input file that every set-up makes. Uploads happen only
// in the set-up rounds, so the measurement window times decompositions
// alone.
type alsWorkload struct {
	dataset string
	rank    int
	sweeps  int
}

var alsWorkloads = map[string]alsWorkload{
	// Factors of 3750 rows × rank 64 are 1.9 MB each, larger than L2:
	// the paper's B-traffic regime, where MTTKRP dominates the sweep.
	"als-kernel": {dataset: "Poisson3", rank: 64, sweeps: 1},
	// The 60000-row factor at rank 128 makes the dense Gram/Cholesky
	// solve dominate; its 80-long mode runs the kernel on short fibers.
	"als-solve": {dataset: "Netflix", rank: 128, sweeps: 1},
}

// alsPlan is fixed: a timing-driven autotune would pick a different plan
// from run to run.
var alsPlan = spblock.Plan{Method: spblock.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 32, Workers: 2}

// setupRound runs a set-up setupReps times. A run makes one round
// before its measurement window and one after it, so setup_s, the
// median, samples the host at both ends of the run rather than only
// during its first seconds.
func setupRound(setup func() error) error {
	for n := 0; n < setupReps; n++ {
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// startWindow collects the garbage left by the set-up and the warm-up,
// so the first jobs of the window do not pay for it, and returns the
// window's start and deadline.
func startWindow(cfg config) (time.Time, time.Time) {
	runtime.GC()
	start := time.Now()
	return start, start.Add(time.Duration(cfg.seconds * float64(time.Second)))
}

const (
	// checkSweeps is the length of the warm-up decomposition whose fits
	// must be finite and non-decreasing.
	checkSweeps = 2
	// setupReps is the number of set-ups in each of a run's two set-up
	// rounds.
	setupReps = 3
)

// fixedTol keeps every decomposition at its sweep budget: the fit never
// changes by less than the smallest positive float64 between sweeps.
var fixedTol = math.SmallestNonzeroFloat64

func genALS(cfg config) error {
	w := alsWorkloads[cfg.workload]
	spec, err := spblock.LookupDataset(w.dataset)
	if err != nil {
		return err
	}
	dims, nnz := scaledShape(spec.BenchDims, spec.BenchNNZ, cfg.scale)
	x, err := spec.GenerateAt(dims, nnz, cfg.seed)
	if err != nil {
		return err
	}
	return spblock.SaveTNS(filepath.Join(cfg.dir, "x.tns"), x)
}

// scaledShape shrinks a bench shape: mode lengths by the cube root of
// scale and nnz linearly, which keeps the density roughly constant.
func scaledShape(dims spblock.Dims, nnz int, scale float64) (spblock.Dims, int) {
	if scale == 1 {
		return dims, nnz
	}
	f := math.Cbrt(scale)
	for m := range dims {
		dims[m] = max(int(float64(dims[m])*f), 16)
	}
	nnz = max(int(float64(nnz)*scale), 2000)
	return dims, min(nnz, int(dims.Volume()/2))
}

func runALS(cfg config, tr *tracer) (*result, error) {
	w := alsWorkloads[cfg.workload]
	res := newResult()
	path := filepath.Join(cfg.dir, "x.tns")
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	// Set-up: input bytes to a ready engine.
	var x *spblock.Tensor
	var me *spblock.MultiExecutor
	var setupS, parseS, buildS []float64
	setup := func() error {
		x, me = nil, nil
		runtime.GC()
		root := tr.begin("setup", "", -1)
		t0 := time.Now()
		id := tr.begin("tensor.parse", "tensor", root)
		var err error
		x, err = spblock.LoadTNS(path)
		tr.end(id)
		t1 := time.Now()
		if err == nil {
			id = tr.begin("engine.build", "engine", root)
			me, err = spblock.NewMultiExecutor(x, alsPlan)
			tr.end(id)
		}
		t2 := time.Now()
		tr.end(root)
		res.op(err)
		if err != nil {
			return err
		}
		setupS = append(setupS, t2.Sub(t0).Seconds())
		parseS = append(parseS, t1.Sub(t0).Seconds())
		buildS = append(buildS, t2.Sub(t1).Seconds())
		return nil
	}
	if err := setupRound(setup); err != nil {
		return nil, err
	}

	// Warm-up decomposition: fills the engine's pooled workspaces and
	// gives the reference trajectory every job must reproduce. Its
	// high-water mark is peak_rss_mb (see startPeak).
	if err := startPeak(); err != nil {
		return nil, err
	}
	opts := spblock.CPOptions{Rank: w.rank, MaxIters: checkSweeps, Tol: fixedTol, Seed: cfg.seed}
	ref, err := spblock.CPALSEngine(x, me, opts)
	res.op(err)
	if err != nil {
		return nil, fmt.Errorf("warm-up decomposition: %w", err)
	}
	checkFits(res, ref.Fits, checkSweeps)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	before := engineSnapshots(me)
	opts.MaxIters = w.sweeps
	dec := decompositions{tr: tr, sweeps: w.sweeps}
	start, deadline := startWindow(cfg)
	for n := 0; n < minJobs(tr) || time.Now().Before(deadline); n++ {
		var fits []float64
		if tr != nil && n%2 == 1 {
			fits, err = dec.traced(func(parent int) (*als.Result, error) {
				return tracedEngineCPALS(x, me, opts, tr, parent)
			})
		} else {
			fits, err = dec.untraced(func() ([]float64, error) {
				r, err := spblock.CPALSEngine(x, me, opts)
				if err != nil {
					return nil, err
				}
				return r.Fits, nil
			})
		}
		res.op(err)
		if err == nil {
			res.check(len(fits) == w.sweeps && math.Float64bits(fits[0]) == math.Float64bits(ref.Fits[0]),
				"job %d fits %v do not reproduce the warm-up's first fit %v", n, fits, ref.Fits[0])
		}
	}
	window := time.Since(start).Seconds()
	var kt kernelTotals
	for mode, after := range engineSnapshots(me) {
		kt.addSnapshotDelta(before[mode], after, w.rank)
	}

	checkAgainstCOO(res, x, me, w.rank, cfg)
	// Measured before the second set-up round replaces the engine whose
	// workspaces the jobs have grown.
	buildMB := float64(me.MemoryBytes()) / 1e6
	if err := setupRound(setup); err != nil {
		return nil, err
	}

	res.set("setup_s", median(setupS))
	res.set("upload_ms.p50", 1e3*median(parseS))
	res.set("peak_rss_mb", rss)
	dec.reportE2E(res, window)

	res.set("tensor.parse_s", median(parseS))
	res.set("tensor.parse_mb_per_s", ratio(float64(st.Size())/1e6, median(parseS)))
	res.set("engine.build_s", median(buildS))
	res.set("engine.build_mb", buildMB)
	var mttkrpS float64
	for mode := 0; mode < 3; mode++ {
		d := tr.durations(fmt.Sprintf("engine.mttkrp.mode%d", mode))
		res.set(fmt.Sprintf("engine.mttkrp_s.mode%d", mode), median(d))
		mttkrpS += sum(d)
	}
	res.set("engine.mttkrp_share", ratio(mttkrpS, sum(tr.durations("als.cpals"))))
	kt.report(res)
	dec.reportLayers(res)
	res.notef("plan %s, rank %d, %d sweep(s) per job, %d jobs in %.2f s", alsPlan, w.rank, w.sweeps, dec.jobs(), window)
	return res, nil
}

// minJobs is the least number of jobs a measurement window runs: a
// traced run alternates untraced and traced jobs and needs two of each.
func minJobs(tr *tracer) int {
	if tr != nil {
		return 4
	}
	return 3
}

// checkFits demands a finite, non-decreasing fit trajectory of the
// expected length.
func checkFits(res *result, fits []float64, want int) {
	ok := len(fits) == want
	for i, f := range fits {
		if math.IsNaN(f) || math.IsInf(f, 0) || (i > 0 && f < fits[i-1]) {
			ok = false
		}
	}
	res.check(ok, "fit trajectory %v is not %d finite non-decreasing values", fits, want)
}

func engineSnapshots(me *spblock.MultiExecutor) [3]spblock.KernelSnapshot {
	var s [3]spblock.KernelSnapshot
	for mode := range s {
		if met, err := me.Metrics(mode); err == nil {
			s[mode] = met.Snapshot()
		}
	}
	return s
}

// checkAgainstCOO compares the configured plan's MTTKRP for every mode
// with the COO reference kernel on one seeded factor set.
func checkAgainstCOO(res *result, x *spblock.Tensor, me *spblock.MultiExecutor, rank int, cfg config) {
	coo, err := spblock.NewMultiExecutor(x, spblock.Plan{Method: spblock.MethodCOO, Workers: 1})
	res.op(err)
	if err != nil {
		return
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var factors [3]*spblock.Matrix
	for m := range factors {
		factors[m] = spblock.NewMatrix(x.Dims[m], rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
	}
	for mode := 0; mode < 3; mode++ {
		got := spblock.NewMatrix(x.Dims[mode], rank)
		want := spblock.NewMatrix(x.Dims[mode], rank)
		err := me.Run(mode, factors, got)
		if err == nil {
			err = coo.Run(mode, factors, want)
		}
		res.op(err)
		if err != nil {
			continue
		}
		if cfg.perturb {
			got.Data[0] += 1
		}
		e := relErr(got.Data, want.Data)
		res.check(e <= 1e-9, "mode-%d MTTKRP differs from COO by %.3g (relative)", mode, e)
	}
}

// relErr is max|a−b| / max|b|.
func relErr(a, b []float64) float64 {
	var d, m float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		m = math.Max(m, math.Abs(b[i]))
	}
	return ratio(d, m)
}

// tracedEngineCPALS is CPALSEngine with a span around every MTTKRP: the
// same sweep loop (als.Run) over the same engine, with the kernel
// wrapped. Jobs check that it reproduces the untraced trajectory bit
// for bit.
func tracedEngineCPALS(x *spblock.Tensor, me *spblock.MultiExecutor, opts spblock.CPOptions, tr *tracer, parent int) (*als.Result, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	k := &tracedKernel{dims: x.Dims[:], tr: tr, parent: parent, layer: "engine", prefix: "engine.mttkrp.mode",
		run: func(mode int, f []*la.Matrix, out *la.Matrix) error {
			return me.Run(mode, [3]*la.Matrix{f[0], f[1], f[2]}, out)
		}}
	return als.Run(k, als.Config{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Seed: opts.Seed,
		NormX: math.Sqrt(x.NormSquared()), ErrPrefix: "cpd"})
}

// tracedKernel wraps a kernel's MTTKRP in one span per call.
type tracedKernel struct {
	dims   []int
	run    func(mode int, f []*la.Matrix, out *la.Matrix) error
	tr     *tracer
	parent int
	layer  string
	prefix string
}

func (k *tracedKernel) Dims() []int { return k.dims }

func (k *tracedKernel) MTTKRP(mode int, f []*la.Matrix, out *la.Matrix) error {
	id := k.tr.begin(k.prefix+string(rune('0'+mode)), k.layer, k.parent)
	err := k.run(mode, f, out)
	k.tr.end(id)
	return err
}

// decompositions times a workload's decomposition jobs, untraced and
// traced, and derives the job and ALS-layer metrics.
type decompositions struct {
	tr     *tracer
	sweeps int
	// untracedS and tracedS are job wall times in seconds.
	untracedS, tracedS []float64
	// fitNS, mallocs and allocBytes accumulate over traced jobs.
	fitNS, mallocs, allocBytes float64
}

func (d *decompositions) jobs() int { return len(d.untracedS) + len(d.tracedS) }

func (d *decompositions) untraced(run func() ([]float64, error)) ([]float64, error) {
	t0 := time.Now()
	fits, err := run()
	if err == nil {
		d.untracedS = append(d.untracedS, time.Since(t0).Seconds())
	}
	return fits, err
}

// traced runs one decomposition under a "job" root span; run opens its
// kernel spans under the "als.cpals" span it is given.
func (d *decompositions) traced(run func(parent int) (*als.Result, error)) ([]float64, error) {
	root := d.tr.begin("job", "", -1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	id := d.tr.begin("als.cpals", "als", root)
	r, err := run(id)
	d.tr.end(id)
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	d.tr.end(root)
	if err != nil {
		return nil, err
	}
	d.tracedS = append(d.tracedS, el.Seconds())
	d.fitNS += float64(r.Phases.NormNS)
	d.mallocs += float64(m1.Mallocs - m0.Mallocs)
	d.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	return r.Fits, nil
}

// reportE2E sets the job metrics of the untraced jobs. sweep_s is their
// total decomposition wall time divided by their sweeps: a mean over the
// whole window, which a few slow jobs move less than they move a median
// of the handful of jobs a window holds.
func (d *decompositions) reportE2E(res *result, window float64) {
	var jobMS []float64
	for _, s := range d.untracedS {
		jobMS = append(jobMS, 1e3*s)
	}
	res.set("sweep_s", ratio(sum(d.untracedS), float64(len(d.untracedS)*d.sweeps)))
	res.set("job_ms.p50", quantile(jobMS, 0.5))
	res.set("job_ms.p90", quantile(jobMS, 0.9))
	res.set("jobs_per_s", float64(d.jobs())/window)
}

// reportLayers sets the ALS-layer and trace metrics. The decomposition
// span's self time (its duration minus its MTTKRP children) is the
// solve layer plus the fit; the sweep loop's own fit timer splits them.
func (d *decompositions) reportLayers(res *result) {
	if d.tr == nil {
		return
	}
	l := d.tr.ledger()
	sweeps := float64(len(d.tracedS) * d.sweeps)
	res.set("als.solve_s", ratio(float64(l.Self["als"])-d.fitNS, 1e9*sweeps))
	res.set("als.fit_s", ratio(d.fitNS, 1e9*sweeps))
	res.set("als.allocs_per_sweep", ratio(d.mallocs, sweeps))
	res.set("als.alloc_mb_per_sweep", ratio(d.allocBytes/1e6, sweeps))
	res.set("trace.unattributed_frac", ratio(float64(l.Unattributed), float64(l.Wall)))
	res.set("trace.overhead_frac", ratio(median(d.tracedS), median(d.untracedS))-1)
	res.notef("trace ledger: wall %.3f s = unattributed %.3f s + %s", float64(l.Wall)/1e9, float64(l.Unattributed)/1e9, formatSelf(l.Self))
}

func formatSelf(self map[string]int64) string {
	s := ""
	for i, k := range sortedKeys(self) {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s %.3f s", k, float64(self[k])/1e9)
	}
	return s
}
