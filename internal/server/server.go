package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"spblock/internal/cpapr"
	"spblock/internal/cpd"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/tensor"
)

// Options configures a Server.
type Options struct {
	// Cache configures the executor cache (byte budget, kernel plan).
	Cache CacheConfig
	// MaxConcurrent bounds how many jobs run at once across all
	// tenants; excess jobs queue until a slot frees or their context
	// is done. Default: GOMAXPROCS.
	MaxConcurrent int
	// TenantQuota bounds one tenant's in-flight (running or queued)
	// jobs; requests over it are rejected with 429 immediately rather
	// than queued, so one tenant cannot occupy the whole admission
	// queue. Default: MaxConcurrent.
	TenantQuota int
	// MaxUploadBytes bounds a tensor upload body. Default 64 MiB.
	MaxUploadBytes int64
}

// Server is the spblockd HTTP service: tensor uploads, decomposition
// jobs against cached executor stacks, and a metrics scrape.
type Server struct {
	opts  Options
	cache *Cache
	sem   chan struct{}

	mu       sync.Mutex
	inflight map[string]int

	jobsDone     int64
	jobsFailed   int64
	jobsCanceled int64
	jobsRejected int64
}

// New builds a Server with opts' defaults applied.
func New(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opts.TenantQuota <= 0 {
		opts.TenantQuota = opts.MaxConcurrent
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 64 << 20
	}
	return &Server{
		opts:     opts,
		cache:    NewCache(opts.Cache),
		sem:      make(chan struct{}, opts.MaxConcurrent),
		inflight: make(map[string]int),
	}
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tensors", s.handleUpload)
	mux.HandleFunc("/jobs", s.handleJob)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		return // client went away; nothing useful left to do
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return // client went away mid-response
	}
}

// uploadResponse is the body of a successful POST /tensors.
type uploadResponse struct {
	Fingerprint string `json:"fingerprint"`
	Dims        [3]int `json:"dims"`
	NNZ         int    `json:"nnz"`
	Cached      bool   `json:"cached"`
}

// handleUpload ingests a FROSTT .tns body, dedups it and registers it
// in the executor cache under its content fingerprint.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a .tns body to /tensors")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	t, err := tensor.ReadTNS(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing tensor: %v", err)
		return
	}
	if _, err := t.Dedup(); err != nil {
		httpError(w, http.StatusBadRequest, "merging duplicate entries: %v", err)
		return
	}
	e, existed := s.cache.Put(t)
	writeJSON(w, uploadResponse{
		Fingerprint: e.Fingerprint(),
		Dims:        e.Tensor().Dims,
		NNZ:         e.Tensor().NNZ(),
		Cached:      existed,
	})
}

// jobRequest is the body of POST /jobs.
type jobRequest struct {
	// Fingerprint names the uploaded tensor to operate on.
	Fingerprint string `json:"fingerprint"`
	// Kind is "mttkrp", "cpals" or "cpapr".
	Kind string `json:"kind"`
	// Rank is the decomposition (or factor) rank. Required.
	Rank int `json:"rank"`
	// MaxIters / Tol / Seed parameterise the decomposition kinds.
	MaxIters int     `json:"maxIters,omitempty"`
	Tol      float64 `json:"tol,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Reps is the mttkrp kind's repetition count (default 1).
	Reps int `json:"reps,omitempty"`
	// Workers, when positive, re-sizes the cached stack's parallelism
	// for this job only; jobs that leave it unset run at the plan's
	// worker count regardless of what earlier jobs asked for. mttkrp
	// and cpals only.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs bounds the job's wall time; on expiry the job is
	// canceled between mode products and 504 is returned.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// jobResponse is the body of a successful POST /jobs.
type jobResponse struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Tenant      string `json:"tenant"`
	// ElapsedMs is the job's service time (not counting queueing).
	ElapsedMs float64 `json:"elapsedMs"`

	// CP-ALS / CP-APR fields.
	Iters     int     `json:"iters,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Fit       float64 `json:"fit,omitempty"`
	FinalKL   float64 `json:"finalKL,omitempty"`
	Plan      string  `json:"plan,omitempty"`

	// MTTKRP fields.
	Reps     int                `json:"reps,omitempty"`
	ModeSnap []metrics.Snapshot `json:"modeSnapshots,omitempty"`
}

// tenantOf extracts the caller's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit reserves one of tenant's quota slots, or reports rejection.
func (s *Server) admit(tenant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[tenant] >= s.opts.TenantQuota {
		s.jobsRejected++
		return false
	}
	s.inflight[tenant]++
	return true
}

func (s *Server) done(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight[tenant]--
	if s.inflight[tenant] == 0 {
		delete(s.inflight, tenant)
	}
}

func (s *Server) countOutcome(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.jobsDone++
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.jobsCanceled++
	default:
		s.jobsFailed++
	}
}

// handleJob admits, schedules and runs one decomposition job
// synchronously: the response is the job's result, and closing the
// request (or exceeding timeoutMs) cancels the job between mode
// products.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a job description to /jobs")
		return
	}
	var req jobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing job: %v", err)
		return
	}
	if req.Rank <= 0 {
		httpError(w, http.StatusBadRequest, "rank must be positive, got %d", req.Rank)
		return
	}
	switch req.Kind {
	case "mttkrp", "cpals", "cpapr":
	default:
		httpError(w, http.StatusBadRequest, "unknown job kind %q (want mttkrp, cpals or cpapr)", req.Kind)
		return
	}

	tenant := tenantOf(r)
	if !s.admit(tenant) {
		httpError(w, http.StatusTooManyRequests, "tenant %q is at its quota of %d in-flight jobs", tenant, s.opts.TenantQuota)
		return
	}
	defer s.done(tenant)

	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	// Worker-pool admission: queue for a slot, bounded by the job's
	// own context so an impatient client stops occupying the queue.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.countOutcome(ctx.Err())
		httpError(w, statusFor(ctx.Err()), "canceled while queued: %v", ctx.Err())
		return
	}
	defer func() { <-s.sem }()

	entry, ok := s.cache.Get(req.Fingerprint)
	if !ok {
		httpError(w, http.StatusNotFound, "no tensor with fingerprint %q (upload it to /tensors first)", req.Fingerprint)
		return
	}
	if err := entry.Acquire(ctx); err != nil {
		s.countOutcome(err)
		httpError(w, statusFor(err), "canceled while waiting for the tensor's executor lease: %v", err)
		return
	}
	defer entry.Release()

	start := time.Now()
	resp, err := s.runJob(ctx, entry, req)
	entry.publish()
	s.countOutcome(err)
	if err != nil {
		httpError(w, statusFor(err), "%s job on %.12s: %v", req.Kind, req.Fingerprint, err)
		return
	}
	resp.Fingerprint = req.Fingerprint
	resp.Kind = req.Kind
	resp.Tenant = tenant
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, resp)
}

// statusFor maps job errors onto HTTP statuses: deadline → 504,
// client cancel → 499 (nginx's convention; Go has no named constant),
// anything else → 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// runJob executes one job under the entry's lease.
func (s *Server) runJob(ctx context.Context, entry *Entry, req jobRequest) (*jobResponse, error) {
	switch req.Kind {
	case "mttkrp":
		return s.runMTTKRP(ctx, entry, req)
	case "cpals":
		eng, err := s.cache.Executor(entry)
		if err != nil {
			return nil, err
		}
		if err := entry.applyWorkers(req.Workers); err != nil {
			return nil, err
		}
		res, err := cpd.CPALSEngine(tensor.ToNMode(entry.Tensor()), eng, cpd.Options{
			Rank:     req.Rank,
			MaxIters: req.MaxIters,
			Tol:      req.Tol,
			Seed:     req.Seed,
			Ctx:      ctx,
		})
		if err != nil {
			return nil, err
		}
		return &jobResponse{
			Iters:     res.Iters,
			Converged: res.Converged,
			Fit:       res.Fit(),
			Plan:      entry.planString(),
		}, nil
	case "cpapr":
		res, err := cpapr.Decompose(entry.Tensor(), cpapr.Options{
			Rank:     req.Rank,
			MaxIters: req.MaxIters,
			Tol:      req.Tol,
			Seed:     req.Seed,
			Workers:  req.Workers,
			Ctx:      ctx,
		})
		if err != nil {
			return nil, err
		}
		return &jobResponse{
			Iters:     res.Iters,
			Converged: res.Converged,
			FinalKL:   res.FinalKL(),
		}, nil
	}
	return nil, fmt.Errorf("unknown job kind %q", req.Kind)
}

// runMTTKRP runs req.Reps repetitions of every mode product with
// seeded random factors — the service face of the benchmark driver.
func (s *Server) runMTTKRP(ctx context.Context, entry *Entry, req jobRequest) (*jobResponse, error) {
	eng, err := s.cache.Executor(entry)
	if err != nil {
		return nil, err
	}
	if err := entry.applyWorkers(req.Workers); err != nil {
		return nil, err
	}
	reps := req.Reps
	if reps <= 0 {
		reps = 1
	}
	dims := eng.Dims()
	rng := rand.New(rand.NewSource(req.Seed))
	factors := make([]*la.Matrix, eng.Order())
	outs := make([]*la.Matrix, eng.Order())
	for m := range factors {
		factors[m] = la.NewMatrix(dims[m], req.Rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
		outs[m] = la.NewMatrix(dims[m], req.Rank)
	}
	for rep := 0; rep < reps; rep++ {
		for mode := range outs {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("canceled before rep %d mode-%d product: %w", rep+1, mode+1, err)
			}
			if err := eng.Run(mode, factors, outs[mode]); err != nil {
				return nil, err
			}
		}
	}
	snaps := make([]metrics.Snapshot, eng.Order())
	for mode := range snaps {
		met, err := eng.Metrics(mode)
		if err != nil {
			return nil, err
		}
		snaps[mode] = met.Snapshot()
	}
	return &jobResponse{Reps: reps, ModeSnap: snaps}, nil
}

// handleMetrics serves the Prometheus-style text scrape: server-level
// job and cache counters plus every cached entry's published per-mode
// executor snapshots. Entries are reported
// from their published copies — the scrape never touches an executor,
// so it cannot race a running job.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	entries := s.cache.Snapshot()
	sort.Slice(entries, func(a, b int) bool { return entries[a].Fingerprint < entries[b].Fingerprint })

	s.mu.Lock()
	done, failed, canceled, rejected := s.jobsDone, s.jobsFailed, s.jobsCanceled, s.jobsRejected
	tenants := make(map[string]int, len(s.inflight))
	for t, n := range s.inflight {
		tenants[t] = n
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("spblockd_jobs_total{outcome=\"done\"} %d\n", done)
	p("spblockd_jobs_total{outcome=\"failed\"} %d\n", failed)
	p("spblockd_jobs_total{outcome=\"canceled\"} %d\n", canceled)
	p("spblockd_jobs_total{outcome=\"rejected\"} %d\n", rejected)
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		p("spblockd_tenant_inflight{tenant=%q} %d\n", t, tenants[t])
	}
	p("spblockd_cache_entries %d\n", cs.Entries)
	p("spblockd_cache_bytes %d\n", cs.Bytes)
	p("spblockd_cache_hits_total %d\n", cs.Hits)
	p("spblockd_cache_misses_total %d\n", cs.Misses)
	p("spblockd_executor_builds_total %d\n", cs.Builds)
	p("spblockd_cache_evictions_total %d\n", cs.Evictions)

	for _, e := range entries {
		fp := e.Fingerprint[:12]
		p("spblockd_entry_bytes{fp=%q} %d\n", fp, e.Bytes)
		p("spblockd_entry_nnz{fp=%q} %d\n", fp, e.NNZ)
		p("spblockd_entry_jobs_total{fp=%q} %d\n", fp, e.Jobs)
		p("spblockd_entry_leases_total{fp=%q} %d\n", fp, e.Leases)
		built := 0
		if e.Built {
			built = 1
		}
		p("spblockd_entry_executor_built{fp=%q} %d\n", fp, built)
		for mode, snap := range e.Snaps {
			if snap.Runs == 0 {
				continue
			}
			p("spblockd_mode_runs_total{fp=%q,mode=\"%d\"} %d\n", fp, mode, snap.Runs)
			p("spblockd_mode_wall_ns_total{fp=%q,mode=\"%d\"} %d\n", fp, mode, snap.WallNS)
			p("spblockd_mode_nnz_total{fp=%q,mode=\"%d\"} %d\n", fp, mode, snap.NNZ)
			p("spblockd_mode_steals_total{fp=%q,mode=\"%d\"} %d\n", fp, mode, snap.Steals())
			if snap.Sched != "" {
				p("spblockd_mode_sched{fp=%q,mode=\"%d\",sched=%q} 1\n", fp, mode, snap.Sched)
			}
		}
	}
}
