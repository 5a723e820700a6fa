package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"spblock"
	"spblock/internal/gen"
	"spblock/internal/server"
)

// The serve-mixed workload runs spblockd in process (server.New behind
// httptest) and drives it with two closed-loop clients, each waiting for
// its reply before sending the next request. Each client is its own
// tenant and owns two of the four tensors — one it uses twice as often
// as the other — so an eviction or a re-upload of a tensor is only ever
// caused or observed by its owner, which makes the upload checks exact.
// The cache byte budget holds the two most-used stacks but not all four,
// so the less-used tensors evict each other and are rebuilt. Each client
// owns one cheap and one costly tensor (Poisson2 with Netflix, Poisson3
// with NELL2), so the two clients' jobs cost about the same and each
// completes a steady share of the run's jobs.
//
// The traffic is an assumed synthetic mix, not a recorded one. Each
// ratio has a stated reason: the three job kinds are equally frequent
// on each tensor (no measured mix favours one); the 2:1 hot/cold split
// exists so that
// the cache both hits (hot stacks stay) and rebuilds (cold ones evict
// each other); and one re-upload pair per block of nine jobs is the
// "periodic re-uploads" the workload calls for, at about a tenth of the
// requests. The job parameters are in jobParams.
//
// A job is one POST /jobs (cpals, mttkrp or cpapr); an upload is one
// POST /tensors. Evicting a tensor drops it from the service, so a job
// on an evicted tensor gets 404; the client then re-uploads the tensor
// (which must not be cached) and retries the job (which must succeed).

// serveTensor is one uploaded tensor: a Table II shape at a tenth of its
// bench nonzeros.
type serveTensor struct {
	dataset string
	owner   int
	hot     bool
}

var serveTensors = []serveTensor{
	{dataset: "Poisson2", owner: 0, hot: true},
	{dataset: "NELL2", owner: 1, hot: false},
	{dataset: "Poisson3", owner: 1, hot: true},
	{dataset: "Netflix", owner: 0, hot: false},
}

const (
	serveClients = 2
	// serveBudgetMB is the cache byte budget at scale 1. Built entries
	// (tensor plus stack) take about 15 and 19 MB for the hot tensors and
	// 9 MB for each cold one, 51 MB in all, so all four never fit. The
	// budget holds any tensor plus both of the other client's built
	// stacks (at most 43 MB): an entry a client has just uploaded can
	// only be evicted by its owner, which is what makes the upload
	// checks exact.
	serveBudgetMB = 48
	// serveBlockOps is the length of one block of a client's sequence;
	// a client runs at least one block, however short the window.
	serveBlockOps = 10
)

// servePlan is the cached stacks' fixed plan: one worker per job, so two
// concurrent jobs use the host's two cores.
var servePlan = spblock.Plan{Method: spblock.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 32, Workers: 1}

// jobParams are the per-kind request parameters. Every kind runs at
// rank 16, the rank of the README's spblockd example job, and does three
// rounds of work: three CP-ALS sweeps, three repetitions of all three
// mode products, or three CP-APR outer iterations. Fixed counts (with a
// tolerance that never stops a decomposition early) keep a job's cost
// the same on every run.
var jobParams = map[string]struct{ rank, iters, reps int }{
	"cpals":  {rank: 16, iters: 3},
	"mttkrp": {rank: 16, reps: 3},
	"cpapr":  {rank: 16, iters: 3},
}

func genServe(cfg config) error {
	for i, st := range serveTensors {
		spec, err := spblock.LookupDataset(st.dataset)
		if err != nil {
			return err
		}
		dims, nnz := scaledShape(spec.BenchDims, spec.BenchNNZ/10, cfg.scale)
		x, err := spec.GenerateAt(dims, nnz, gen.SubSeed(cfg.seed, i))
		if err != nil {
			return err
		}
		x.Dedup()
		// Both bodies hold the same nonzeros in different seeded random
		// orders, so they cost the same to ingest and the service must
		// recognise the second as the first.
		for v, name := range []string{"t%d.tns", "t%d.shuf.tns"} {
			rng := rand.New(rand.NewSource(gen.SubSeed(cfg.seed, 100+2*i+v)))
			y := spblock.NewTensor(x.Dims, x.NNZ())
			for _, p := range rng.Perm(x.NNZ()) {
				y.Append(x.I[p], x.J[p], x.K[p], x.Val[p])
			}
			if err := spblock.SaveTNS(filepath.Join(cfg.dir, fmt.Sprintf(name, i)), y); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveOp is one step of a client's sequence.
type serveOp struct {
	kind   string // cpals, mttkrp, cpapr or upload
	tensor int
	seed   int64
}

// serveSequence builds client c's op sequence from blocks of
// serveBlockOps: nine jobs, with every third on the client's cold tensor
// and the rest on its hot one, and one upload pair, alternately of the
// hot and the cold tensor. Every block runs each kind twice on the hot
// tensor and once on the cold one, so every seed sees the same work and
// cache pressure; the seed shuffles the order of the kinds within the
// hot and within the cold slots and picks the job seeds. A block's
// cpals jobs share one seed from {1, 2}, so every block repeats an
// identical cpals job (two on the hot tensor) to compare.
func serveSequence(seed int64, c int, blocks int) []serveOp {
	var hot, cold int
	for i, st := range serveTensors {
		if st.owner == c && st.hot {
			hot = i
		} else if st.owner == c {
			cold = i
		}
	}
	rng := rand.New(rand.NewSource(gen.SubSeed(seed, 1000+c)))
	var seq []serveOp
	for b := 0; b < blocks; b++ {
		hotKinds := []string{"cpals", "cpals", "mttkrp", "mttkrp", "cpapr", "cpapr"}
		coldKinds := []string{"cpals", "mttkrp", "cpapr"}
		rng.Shuffle(len(hotKinds), func(i, j int) { hotKinds[i], hotKinds[j] = hotKinds[j], hotKinds[i] })
		rng.Shuffle(len(coldKinds), func(i, j int) { coldKinds[i], coldKinds[j] = coldKinds[j], coldKinds[i] })
		cpalsSeed := 1 + rng.Int63n(2)
		for i := 0; i < serveBlockOps-1; i++ {
			op := serveOp{tensor: hot, seed: rng.Int63n(1 << 30)}
			if i%3 == 2 {
				op.kind, op.tensor = coldKinds[i/3], cold
			} else {
				op.kind = hotKinds[i-i/3]
			}
			if op.kind == "cpals" {
				op.seed = cpalsSeed
			}
			seq = append(seq, op)
		}
		up := serveOp{kind: "upload", tensor: hot}
		if b%2 == 1 {
			up.tensor = cold
		}
		seq = append(seq, up)
	}
	return seq
}

// serveRecord is one completed request as the client saw it.
type serveRecord struct {
	kind      string
	tensor    int // jobs only
	traced    bool
	latencyMS float64
	serviceMS float64 // the response's elapsedMs (jobs only)
	iters     int
	cached    bool // uploads only
}

// serveClient is one closed-loop client; it owns its records and op
// counts, merged after the run.
type serveClient struct {
	id      int
	url     string
	http    *http.Client
	bodies  [][2][]byte // per tensor: original, shuffled
	fps     []string
	res     *result
	records []serveRecord
	fits    map[string]float64 // "tensor/seed" → cpals fit
	tr      *tracer
	root    int
	perturb bool
}

type uploadReply struct {
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
}

type jobReply struct {
	ElapsedMs float64 `json:"elapsedMs"`
	Iters     int     `json:"iters"`
	Fit       float64 `json:"fit"`
	FinalKL   float64 `json:"finalKL"`
}

// post sends one request under a span and returns the status, body,
// send and receive times, and the span's id.
func (c *serveClient) post(path string, body []byte, span, layer string) (int, []byte, time.Time, time.Time, int, error) {
	id := c.tr.begin(span, layer, c.root)
	defer c.tr.end(id)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, t0, t0, id, err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", c.id))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, t0, time.Now(), id, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, t0, time.Now(), id, err
}

// upload posts tensor t's original or shuffled body and checks the
// fingerprint; it returns whether the service already had the tensor.
func (c *serveClient) upload(t int, shuffled bool) (cached bool, ok bool) {
	body := c.bodies[t][0]
	if shuffled {
		body = c.bodies[t][1]
	}
	status, data, t0, t1, _, err := c.post("/tensors", body, "server.upload", "server.upload")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("upload of tensor %d: status %d: %s", t, status, strings.TrimSpace(string(data)))
	}
	var rep uploadReply
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err == nil && rep.Fingerprint != c.fps[t] {
		err = fmt.Errorf("upload of tensor %d: fingerprint %.12s, want %.12s", t, rep.Fingerprint, c.fps[t])
	}
	c.res.op(err)
	if err != nil {
		return false, false
	}
	c.records = append(c.records, serveRecord{kind: "upload", traced: c.tr != nil,
		latencyMS: ms(t1.Sub(t0)), cached: rep.Cached})
	return rep.Cached, true
}

// uploadPair re-uploads tensor t and then its shuffled copy, which must
// dedupe against the upload just made.
func (c *serveClient) uploadPair(t int) {
	if _, ok := c.upload(t, false); !ok {
		return
	}
	if cached, ok := c.upload(t, true); ok {
		c.res.check(cached, "shuffled re-upload of tensor %d was not recognised as cached", t)
	}
}

// job runs one job, re-uploading and retrying once if its tensor was
// evicted.
func (c *serveClient) job(op serveOp, retry bool) {
	p := jobParams[op.kind]
	body, err := json.Marshal(map[string]any{
		"fingerprint": c.fps[op.tensor], "kind": op.kind, "rank": p.rank,
		"maxIters": p.iters, "tol": fixedTol, "seed": op.seed, "reps": p.reps,
	})
	if err != nil {
		c.res.op(err)
		return
	}
	status, data, t0, t1, sid, err := c.post("/jobs", body, "server.job."+op.kind, "server.queue")
	if err == nil && status == http.StatusNotFound && !retry {
		// Evicted: the owner alone uploads this tensor, so the service
		// must not have it back until the re-upload below.
		if cached, ok := c.upload(op.tensor, false); ok {
			c.res.check(!cached, "job on tensor %d got 404 but its re-upload was cached", op.tensor)
			c.job(op, true)
		}
		return
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s job on tensor %d: status %d: %s", op.kind, op.tensor, status, strings.TrimSpace(string(data)))
	}
	var rep jobReply
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	c.res.op(err)
	if err != nil {
		return
	}
	service := time.Duration(rep.ElapsedMs * float64(time.Millisecond))
	if c.tr != nil {
		c.tr.add("server.service."+op.kind, "server.service", sid, t1.Add(-service), t1)
	}
	c.records = append(c.records, serveRecord{kind: op.kind, tensor: op.tensor, traced: c.tr != nil,
		latencyMS: ms(t1.Sub(t0)), serviceMS: rep.ElapsedMs, iters: rep.Iters})
	switch op.kind {
	case "cpals":
		key := fmt.Sprintf("%d/%d", op.tensor, op.seed)
		if prev, seen := c.fits[key]; seen {
			if c.perturb {
				rep.Fit = math.Nextafter(rep.Fit, 2)
			}
			c.res.check(math.Float64bits(prev) == math.Float64bits(rep.Fit),
				"cpals on tensor %d seed %d: fit %v, earlier identical job %v", op.tensor, op.seed, rep.Fit, prev)
		} else {
			c.fits[key] = rep.Fit
		}
		c.res.check(rep.Iters == p.iters && !math.IsNaN(rep.Fit), "cpals on tensor %d: %d iters, fit %v", op.tensor, rep.Iters, rep.Fit)
	case "cpapr":
		c.res.check(rep.Iters == p.iters && !math.IsNaN(rep.FinalKL) && !math.IsInf(rep.FinalKL, 0),
			"cpapr on tensor %d: %d iters, KL %v", op.tensor, rep.Iters, rep.FinalKL)
	}
}

// serveSummary is the latency samples of a set of records. sweepS is
// the geometric mean over tensors of each tensor's median cpals service
// time per iteration: the tensors differ in cost, and how many jobs each
// client completes varies from run to run, so a median pooled over all
// cpals jobs would move with that mix rather than with the service.
type serveSummary struct {
	jobMS, queueMS, uploadMS []float64
	sweepS, cachedUploads    float64
}

func summarize(recs []serveRecord) serveSummary {
	var s serveSummary
	perTensor := map[int][]float64{}
	for _, r := range recs {
		if r.kind == "upload" {
			s.uploadMS = append(s.uploadMS, r.latencyMS)
			if r.cached {
				s.cachedUploads++
			}
			continue
		}
		s.jobMS = append(s.jobMS, r.latencyMS)
		s.queueMS = append(s.queueMS, r.latencyMS-r.serviceMS)
		if r.kind == "cpals" && r.iters > 0 {
			perTensor[r.tensor] = append(perTensor[r.tensor], r.serviceMS/1e3/float64(r.iters))
		}
	}
	var logSum float64
	for _, v := range perTensor {
		logSum += math.Log(median(v))
	}
	if len(perTensor) > 0 {
		s.sweepS = math.Exp(logSum / float64(len(perTensor)))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runServe(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	n := len(serveTensors)
	bodies := make([][2][]byte, n)
	var inputBytes int64
	for i := range bodies {
		for v, name := range []string{"t%d.tns", "t%d.shuf.tns"} {
			data, err := os.ReadFile(filepath.Join(cfg.dir, fmt.Sprintf(name, i)))
			if err != nil {
				return nil, err
			}
			bodies[i][v] = data
		}
		inputBytes += int64(len(bodies[i][0]))
	}
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	opts := server.Options{
		Cache:         server.CacheConfig{MaxBytes: int64(serveBudgetMB * 1e6 * cfg.scale), Plan: servePlan},
		MaxConcurrent: serveClients,
	}

	// Set-up: a fresh service and the initial uploads.
	var hs *httptest.Server
	defer func() {
		if hs != nil {
			hs.Close()
		}
	}()
	fps := make([]string, n)
	var setupS []float64
	setup := func() error {
		if hs != nil {
			hs.Close()
			transport.CloseIdleConnections()
		}
		runtime.GC()
		hs = httptest.NewServer(server.New(opts).Handler())
		root := tr.begin("setup", "", -1)
		defer tr.end(root)
		t0 := time.Now()
		for i := range serveTensors {
			id := tr.begin("server.upload", "server.upload", root)
			resp, err := hc.Post(hs.URL+"/tensors", "text/plain", bytes.NewReader(bodies[i][0]))
			var up uploadReply
			if err == nil {
				err = decodeReply(resp, &up)
			}
			tr.end(id)
			res.op(err)
			if err != nil {
				return fmt.Errorf("upload of tensor %d: %w", i, err)
			}
			res.check(!up.Cached, "first upload of tensor %d reported cached", i)
			fps[i] = up.Fingerprint
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return nil
	}
	if err := setupRound(setup); err != nil {
		return nil, err
	}

	if tr != nil {
		probeLayers(res, tr, bodies, inputBytes)
	}

	// Load: both clients run until the window closes. A traced run
	// traces every other op, flipping the parity each block so every
	// slot of the sequence is traced as often as not, and compares the
	// traced ops with the untraced ones around them.
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	clients := make([]*serveClient, serveClients)
	var wg sync.WaitGroup
	for c := range clients {
		cl := &serveClient{id: c, url: hs.URL, http: hc, bodies: bodies, fps: fps,
			res: newResult(), fits: map[string]float64{}, root: -1, perturb: cfg.perturb}
		clients[c] = cl
		seq := serveSequence(cfg.seed, c, 50)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < serveBlockOps || time.Now().Before(deadline); i++ {
				if tr != nil && (i+i/serveBlockOps)%2 == 1 {
					cl.tr = tr
					cl.root = tr.begin(fmt.Sprintf("client%d.op", cl.id), "", -1)
				}
				op := seq[i%len(seq)]
				if op.kind == "upload" {
					cl.uploadPair(op.tensor)
				} else {
					cl.job(op, false)
				}
				if cl.tr != nil {
					cl.tr.end(cl.root)
					cl.tr, cl.root = nil, -1
				}
			}
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()

	scrape, err := scrapeMetrics(hc, hs.URL)
	res.op(err)
	if err != nil {
		return nil, err
	}

	var untraced, traced []serveRecord
	for _, cl := range clients {
		res.attempted += cl.res.attempted
		res.failed += cl.res.failed
		res.failures = append(res.failures, cl.res.failures...)
		for _, r := range cl.records {
			if r.traced {
				traced = append(traced, r)
			} else {
				untraced = append(untraced, r)
			}
		}
	}
	u, t := summarize(untraced), summarize(traced)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := setupRound(setup); err != nil {
		return nil, err
	}
	res.set("setup_s", median(setupS))
	res.set("sweep_s", u.sweepS)
	res.set("job_ms.p50", quantile(u.jobMS, 0.5))
	res.set("job_ms.p90", quantile(u.jobMS, 0.9))
	res.set("jobs_per_s", float64(len(u.jobMS))/window)
	res.set("upload_ms.p50", median(u.uploadMS))
	res.set("peak_rss_mb", rss)

	res.set("server.queue_ms.p50", quantile(t.queueMS, 0.5))
	res.set("server.queue_ms.p90", quantile(t.queueMS, 0.9))
	for kind := range jobParams {
		var s []float64
		for _, r := range traced {
			if r.kind == kind {
				s = append(s, r.serviceMS)
			}
		}
		res.set("server.service_ms.p50."+kind, median(s))
	}
	var stackJobs float64
	for _, recs := range [][]serveRecord{untraced, traced} {
		for _, r := range recs {
			if r.kind == "cpals" || r.kind == "mttkrp" {
				stackJobs++
			}
		}
	}
	res.set("server.cache_hit_ratio", 1-ratio(scrape["spblockd_executor_builds_total"], stackJobs))
	res.set("server.builds", scrape["spblockd_executor_builds_total"])
	res.set("server.evictions", scrape["spblockd_cache_evictions_total"])
	res.set("server.rejected", scrape[`spblockd_jobs_total{outcome="rejected"}`])
	res.set("server.upload_dedup_ratio", ratio(t.cachedUploads, float64(len(t.uploadMS))))
	if tr != nil {
		l := tr.ledger()
		res.set("trace.unattributed_frac", ratio(float64(l.Unattributed), float64(l.Wall)))
		res.set("trace.overhead_frac", ratio(median(t.jobMS), median(u.jobMS))-1)
		res.notef("trace ledger: wall %.3f s = unattributed %.3f s + %s", float64(l.Wall)/1e9, float64(l.Unattributed)/1e9, formatSelf(l.Self))
	}
	res.notef("%d clients, budget %.0f MB, %d jobs and %d uploads in %.2f s; %g builds, %g evictions",
		serveClients, serveBudgetMB*cfg.scale, len(u.jobMS)+len(t.jobMS), len(u.uploadMS)+len(t.uploadMS), window,
		scrape["spblockd_executor_builds_total"], scrape["spblockd_cache_evictions_total"])
	return res, nil
}

// probeLayers times, outside the service, the public calls its upload
// and build paths make — parse, fingerprint and executor build — on the
// same bodies, since the service itself exposes no per-phase times.
func probeLayers(res *result, tr *tracer, bodies [][2][]byte, inputBytes int64) {
	root := tr.begin("probe", "", -1)
	var parseS, fpS, buildS, buildMB float64
	for i := range bodies {
		t0 := time.Now()
		id := tr.begin("tensor.parse", "tensor", root)
		x, err := spblock.ReadTNS(bytes.NewReader(bodies[i][0]))
		tr.end(id)
		t1 := time.Now()
		res.op(err)
		if err != nil {
			continue
		}
		x.Dedup()
		id = tr.begin("server.fingerprint", "server.fingerprint", root)
		spblock.Fingerprint(x)
		tr.end(id)
		t2 := time.Now()
		id = tr.begin("engine.build", "engine", root)
		me, err := spblock.NewMultiExecutor(x, servePlan)
		tr.end(id)
		t3 := time.Now()
		res.op(err)
		if err != nil {
			continue
		}
		parseS += t1.Sub(t0).Seconds()
		fpS += t2.Sub(t1).Seconds()
		buildS += t3.Sub(t2).Seconds()
		buildMB += float64(me.MemoryBytes()) / 1e6
	}
	tr.end(root)
	res.set("tensor.parse_s", parseS)
	res.set("tensor.parse_mb_per_s", ratio(float64(inputBytes)/1e6, parseS))
	res.set("server.fingerprint_s", fpS)
	res.set("engine.build_s", buildS)
	res.set("engine.build_mb", buildMB)
}

func decodeReply(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// scrapeMetrics reads the service's /metrics counters that have no
// per-entry labels.
func scrapeMetrics(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.Contains(f[0], "fp=") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}
