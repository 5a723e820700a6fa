package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func randCOO(seed int64, dims []int, nnz int) *nmode.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := nmode.NewTensor(dims, nnz)
	for p := 0; p < nnz; p++ {
		t.Append([]nmode.Index{nmode.Index(rng.Intn(dims[0])), nmode.Index(rng.Intn(dims[1])), nmode.Index(rng.Intn(dims[2]))}, rng.NormFloat64())
	}
	tensor.Dedup(t)
	return t
}

// shuffled returns a copy of t with its nonzeros in a different
// storage order — the same logical tensor.
func shuffled(t *nmode.Tensor, seed int64) *nmode.Tensor {
	c := t.Clone()
	rng := rand.New(rand.NewSource(seed))
	for p := len(c.Val) - 1; p > 0; p-- {
		q := rng.Intn(p + 1)
		for _, idx := range c.Idx {
			idx[p], idx[q] = idx[q], idx[p]
		}
		c.Val[p], c.Val[q] = c.Val[q], c.Val[p]
	}
	return c
}

func TestFingerprintCollisionResistance(t *testing.T) {
	fingerprint := func(x *nmode.Tensor) string {
		t.Helper()
		fp, err := Fingerprint(x)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	x := randCOO(1, []int{20, 18, 16}, 300)
	fp := fingerprint(x)
	if got := fingerprint(shuffled(x, 2)); got != fp {
		t.Errorf("permuted nonzero order changed the fingerprint")
	}
	if got := fingerprint(x.Clone()); got != fp {
		t.Errorf("clone changed the fingerprint")
	}

	val := x.Clone()
	val.Val[17] += 1e-12
	if fingerprint(val) == fp {
		t.Errorf("changed value kept the fingerprint")
	}
	coord := x.Clone()
	coord.Idx[0][17] = (coord.Idx[0][17] + 1) % nmode.Index(coord.Dims[0])
	if fingerprint(coord) == fp {
		t.Errorf("changed coordinate kept the fingerprint")
	}
	wide := x.Clone()
	wide.Dims[2]++
	if fingerprint(wide) == fp {
		t.Errorf("changed dims kept the fingerprint")
	}
	sh := shuffled(x, 3)
	keep := sh.Clone()
	fingerprint(sh)
	for m := range sh.Idx {
		if !slices.Equal(sh.Idx[m], keep.Idx[m]) || !slices.Equal(sh.Val, keep.Val) {
			t.Fatal("Fingerprint reordered its input")
		}
	}
}

func TestCacheEvictionUnderByteBudget(t *testing.T) {
	t1 := randCOO(1, []int{12, 10, 8}, 200)
	budget := 2*tensorBytes(t1) + tensorBytes(t1)/2
	c := NewCache(CacheConfig{MaxBytes: budget})
	e1, _, _ := c.Put(t1)
	e2, _, _ := c.Put(randCOO(2, []int{12, 10, 8}, 200))
	if got := c.Stats().Entries; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	// Touch e2 so e1 is the LRU victim, then overflow the budget.
	if _, ok := c.Get(e2.Fingerprint()); !ok {
		t.Fatal("e2 lookup missed")
	}
	e3, _, _ := c.Put(randCOO(3, []int{12, 10, 8}, 200))
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("evictions=%d entries=%d, want 1 and 2", st.Evictions, st.Entries)
	}
	if _, ok := c.entries[e1.Fingerprint()]; ok {
		t.Fatal("LRU entry e1 survived")
	}
	if st.Bytes > budget {
		t.Fatalf("cache over budget after eviction: %d > %d", st.Bytes, budget)
	}

	// A leased entry must never be evicted, even as the LRU victim.
	if err := e2.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(e3.Fingerprint()); !ok { // make e2 the LRU
		t.Fatal("e3 lookup missed")
	}
	c.Put(randCOO(4, []int{12, 10, 8}, 200))
	if _, ok := c.entries[e2.Fingerprint()]; !ok {
		t.Fatal("leased entry was evicted")
	}
	e2.Release()
}

// TestLeaseExclusion races N goroutines over one cached executor: the
// lease must serialise them (the unsynchronised counter below is a
// data race unless it does — run under -race).
func TestLeaseExclusion(t *testing.T) {
	c := NewCache(CacheConfig{Plan: core.Plan{Method: core.MethodSPLATT}})
	e, _, _ := c.Put(randCOO(1, []int{12, 10, 8}, 200))
	var unguarded int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if err := e.Acquire(context.Background()); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Executor(e); err != nil {
					t.Error(err)
					e.Release()
					return
				}
				unguarded++
				e.Release()
			}
		}()
	}
	wg.Wait()
	if unguarded != 8*50 {
		t.Fatalf("lease lost %d increments", 8*50-unguarded)
	}
	if got := c.Stats().Builds; got != 1 {
		t.Fatalf("executor built %d times, want 1", got)
	}
}

func TestLeaseAcquireHonorsContext(t *testing.T) {
	c := NewCache(CacheConfig{})
	e, _, _ := c.Put(randCOO(1, []int{8, 8, 8}, 100))
	if err := e.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire on a held lease = %v, want DeadlineExceeded", err)
	}
	e.Release()
}

// newTestServer spins up a service plus one uploaded Poisson tensor,
// returning the server, its base URL and the tensor's fingerprint.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, string) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, upload(t, ts.URL, poisson(t, []int{30, 24, 20}, 1500, 5))
}

// poisson generates a Poisson count tensor of the order of dims.
func poisson(t *testing.T, dims []int, events int, seed int64) *nmode.Tensor {
	t.Helper()
	x, err := gen.PoissonN(gen.PoissonNParams{Dims: dims, Events: events}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func upload(t *testing.T, url string, x *nmode.Tensor) string {
	t.Helper()
	var buf bytes.Buffer
	if err := nmode.WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/tensors", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up uploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || up.Fingerprint == "" {
		t.Fatalf("upload failed: %d %+v", resp.StatusCode, up)
	}
	return up.Fingerprint
}

func postJob(t *testing.T, url, tenant string, req jobRequest) (int, jobResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hr.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	var jr jobResponse
	if err := json.NewDecoder(io2{&out, resp.Body}).Decode(&jr); err != nil {
		jr = jobResponse{}
	}
	return resp.StatusCode, jr, out.String()
}

// io2 tees the decoded body so failures can report it.
type io2 struct {
	buf *bytes.Buffer
	r   interface{ Read([]byte) (int, error) }
}

func (t io2) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.buf.Write(p[:n])
	return n, err
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func metricValue(t *testing.T, scrape, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not in scrape:\n%s", name, scrape)
	return 0
}

// TestConcurrentCPALSClientsShareExecutor is the tentpole's acceptance
// test: 8 concurrent clients run CP-ALS against the same fingerprinted
// tensor and the service reuses one cached executor stack — one build,
// 8+ cache hits, all observable through /metrics.
func TestConcurrentCPALSClientsShareExecutor(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{
		MaxConcurrent: 8,
		Cache:         CacheConfig{Plan: core.Plan{Method: core.MethodSPLATT, Workers: 2}},
	})
	const clients = 8
	var wg sync.WaitGroup
	fits := make([]float64, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			code, jr, raw := postJob(t, ts.URL, fmt.Sprintf("tenant-%d", g%3), jobRequest{
				Fingerprint: fp, Kind: "cpals", Rank: 4, MaxIters: 6, Tol: 1e-12, Seed: 9,
			})
			if code != http.StatusOK {
				t.Errorf("client %d: status %d: %s", g, code, raw)
				return
			}
			if jr.Iters == 0 {
				t.Errorf("client %d: no sweeps ran: %s", g, raw)
			}
			fits[g] = jr.Fit
		}(g)
	}
	wg.Wait()
	// Same tensor, seed and plan through one shared stack: every
	// client gets the bit-identical decomposition.
	for g := 1; g < clients; g++ {
		if fits[g] != fits[0] {
			t.Errorf("client %d fit %v != client 0 fit %v", g, fits[g], fits[0])
		}
	}
	m := scrape(t, ts.URL)
	if got := metricValue(t, m, "spblockd_executor_builds_total"); got != 1 {
		t.Errorf("executor built %d times for %d clients, want 1", got, clients)
	}
	if got := metricValue(t, m, "spblockd_cache_hits_total"); got < clients {
		t.Errorf("cache hits = %d, want >= %d", got, clients)
	}
	if got := metricValue(t, m, `spblockd_entry_jobs_total{fp="`+fp[:12]+`"}`); got != clients {
		t.Errorf("entry jobs = %d, want %d", got, clients)
	}
	if got := metricValue(t, m, `spblockd_jobs_total{outcome="done"}`); got != clients {
		t.Errorf("done jobs = %d, want %d", got, clients)
	}
}

// TestJobTimeoutCancelsMidSweep pins the cancel path: a CP-ALS job
// with an unreachable sweep budget and a tiny timeout must come back
// promptly as 504, and the entry must keep serving afterwards.
// It also checks that the canceled job leaves no goroutine behind.
func TestJobTimeoutCancelsMidSweep(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	// A tensor and rank big enough that reaching an exact ALS fixed
	// point (the only way a Tol this small converges) takes far longer
	// than the timeout, so the deadline provably lands mid-run.
	fp := upload(t, ts.URL, poisson(t, []int{60, 50, 40}, 40000, 6))
	before := idleGoroutines()
	start := time.Now()
	code, _, raw := postJob(t, ts.URL, "", jobRequest{
		Fingerprint: fp, Kind: "cpals", Rank: 48, MaxIters: 1_000_000, Tol: 1e-300,
		TimeoutMs: 100,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", code, raw)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("canceled job took %v to return", el)
	}
	if !strings.Contains(raw, "deadline") {
		t.Errorf("error body does not mention the deadline: %s", raw)
	}
	waitGoroutines(t, before)
	code, jr, raw := postJob(t, ts.URL, "", jobRequest{
		Fingerprint: fp, Kind: "cpals", Rank: 3, MaxIters: 3, Tol: 1e-12,
	})
	if code != http.StatusOK || jr.Iters != 3 {
		t.Fatalf("entry dead after canceled job: %d %s", code, raw)
	}
	m := scrape(t, ts.URL)
	if got := metricValue(t, m, `spblockd_jobs_total{outcome="canceled"}`); got != 1 {
		t.Errorf("canceled jobs = %d, want 1", got)
	}
}

// TestClientCancelLeaksNoGoroutines closes a client's connection
// while its CP-ALS job runs: the job must end as canceled (499) and
// the goroutine count settle back to its pre-job value.
func TestClientCancelLeaksNoGoroutines(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	fp := upload(t, ts.URL, poisson(t, []int{60, 50, 40}, 40000, 6))
	before := idleGoroutines()
	body, err := json.Marshal(jobRequest{Fingerprint: fp, Kind: "cpals", Rank: 48, MaxIters: 1_000_000, Tol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Tenant", "leaver")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "the job to start", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight["leaver"] == 1
	})
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request got a reply")
	}
	waitFor(t, "the job to end as canceled", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobsCanceled == 1 && len(s.inflight) == 0
	})
	if got := statusFor(context.Canceled); got != 499 {
		t.Errorf("client cancel maps to %d, want 499", got)
	}
	waitGoroutines(t, before)
}

// TestHugeMaxItersGetsReply: a cpals job's maxIters sizes nothing up
// front, so a sweep budget of 1<<62 still gets an HTTP reply instead of
// a failed allocation in the handler.
func TestHugeMaxItersGetsReply(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	code, jr, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpals", Rank: 3, MaxIters: 1 << 62})
	if code != http.StatusOK || jr.Iters == 0 || !jr.Converged {
		t.Fatalf("cpals job with maxIters 1<<62: %d %s", code, raw)
	}
}

// idleGoroutines closes the default client's idle connections and
// returns the goroutine count once it has stopped falling for 20 ms:
// the server ends a closed connection's goroutine asynchronously.
func idleGoroutines() int {
	http.DefaultClient.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			break
		}
		n = m
	}
	return n
}

// waitGoroutines fails unless the goroutine count, with idle client
// connections closed, settles back to at most want within 5 s.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	var got int
	ok := poll(func() bool {
		http.DefaultClient.CloseIdleConnections()
		got = runtime.NumGoroutine()
		return got <= want
	})
	if !ok {
		t.Fatalf("goroutines = %d after the job, %d before: the job leaked", got, want)
	}
}

// waitFor fails unless cond holds within 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !poll(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

func poll(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestTenantQuotaRejects holds an entry's lease so a tenant's first
// job parks in admission, then asserts the tenant's next job is turned
// away with 429 while another tenant still gets in.
func TestTenantQuotaRejects(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{MaxConcurrent: 4, TenantQuota: 1})
	e, ok := s.cache.Get(fp)
	if !ok {
		t.Fatal("entry missing")
	}
	if err := e.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan int, 1)
	go func() {
		code, _, _ := postJob(t, ts.URL, "greedy", jobRequest{
			Fingerprint: fp, Kind: "cpals", Rank: 2, MaxIters: 2,
		})
		blocked <- code
	}()
	// Wait until the first job is counted in-flight (parked on the lease).
	for deadline := time.Now().Add(5 * time.Second); ; {
		s.mu.Lock()
		n := s.inflight["greedy"]
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	code, _, raw := postJob(t, ts.URL, "greedy", jobRequest{
		Fingerprint: fp, Kind: "cpals", Rank: 2, MaxIters: 2,
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota job: status %d, want 429: %s", code, raw)
	}
	e.Release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("parked job finished with %d, want 200", code)
	}
	// The quota is per-tenant: with greedy drained, another tenant
	// runs immediately.
	if code, _, raw := postJob(t, ts.URL, "patient", jobRequest{
		Fingerprint: fp, Kind: "mttkrp", Rank: 4,
	}); code != http.StatusOK {
		t.Fatalf("other tenant rejected: %d %s", code, raw)
	}
	m := scrape(t, ts.URL)
	if got := metricValue(t, m, `spblockd_jobs_total{outcome="rejected"}`); got != 1 {
		t.Errorf("rejected jobs = %d, want 1", got)
	}
}

func TestJobValidationAndKinds(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	if code, _, _ := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpals"}); code != http.StatusBadRequest {
		t.Errorf("rank 0: status %d, want 400", code)
	}
	if code, _, _ := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "tucker", Rank: 2}); code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", code)
	}
	if code, _, _ := postJob(t, ts.URL, "", jobRequest{Fingerprint: "beef", Kind: "cpals", Rank: 2}); code != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d, want 404", code)
	}
	for _, kind := range []string{"mttkrp", "cpals", "cpapr"} {
		if code, _, _ := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: kind, Rank: 2, Workers: maxJobWorkers + 1}); code != http.StatusBadRequest {
			t.Errorf("%s job with %d workers: status %d, want 400", kind, maxJobWorkers+1, code)
		}
	}
	code, jr, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "mttkrp", Rank: 6, Reps: 3, Workers: 2})
	if code != http.StatusOK || jr.Reps != 3 || len(jr.ModeSnap) != 3 {
		t.Fatalf("mttkrp job: %d %s", code, raw)
	}
	if jr.ModeSnap[0].Runs != 3 {
		t.Errorf("mode-0 runs = %d, want 3", jr.ModeSnap[0].Runs)
	}
	code, jr, raw = postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpapr", Rank: 3, MaxIters: 4})
	if code != http.StatusOK || jr.Iters == 0 {
		t.Fatalf("cpapr job: %d %s", code, raw)
	}
}

// TestCPALSReplyPlanIsClamped pins the cpals reply's plan string to
// the plan the entry's executors run: a cache grid finer than a mode
// length is reported clamped to that length, as the executors clamp it.
func TestCPALSReplyPlanIsClamped(t *testing.T) {
	s := New(Options{Cache: CacheConfig{Plan: core.Plan{Method: core.MethodMBRankB, Grid: [3]int{4, 1, 1}, RankBlockCols: 8}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fp := upload(t, ts.URL, randCOO(13, []int{3, 8, 6}, 60))
	code, jr, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpals", Rank: 2, MaxIters: 2})
	if code != http.StatusOK {
		t.Fatalf("cpals job: %d %s", code, raw)
	}
	if want := "MB+RankB grid=3x1x1 bs=8"; jr.Plan != want {
		t.Errorf("reply plan %q, want %q", jr.Plan, want)
	}
}

// TestUploadDedup uploads the same logical tensor twice in different
// storage orders and expects one cache entry.
func TestUploadDedup(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	x := randCOO(3, []int{15, 12, 10}, 250)
	var fps [2]string
	for trial, v := range []*nmode.Tensor{x, shuffled(x, 4)} {
		var buf bytes.Buffer
		if err := nmode.WriteTNS(&buf, v); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/tensors", "text/plain", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var up uploadResponse
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if up.Cached != (trial == 1) {
			t.Errorf("trial %d: cached = %v", trial, up.Cached)
		}
		fps[trial] = up.Fingerprint
	}
	if fps[0] != fps[1] {
		t.Errorf("re-upload under a different storage order got a new fingerprint")
	}
	if got := s.cache.Stats().Entries; got != 1 {
		t.Errorf("entries = %d, want 1", got)
	}
}

// TestUploadSettlesGoroutines: an upload whose body runs past
// MaxUploadBytes gets a 400 naming the limit, one with a bad first
// line gets a 400 while the rest of its body is still arriving, a
// client that hangs up mid-body gets no reply, and after each the
// goroutine count settles back to its value before the upload: the
// parse pipeline stops with the body read or the parse failed.
func TestUploadSettlesGoroutines(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{MaxUploadBytes: 64 << 10})
	var body bytes.Buffer
	if err := nmode.WriteTNS(&body, poisson(t, []int{300, 240, 200}, 100000, 7)); err != nil {
		t.Fatal(err)
	}
	if body.Len() < 1<<20 {
		t.Fatalf("body of %d bytes does not span several parse blocks", body.Len())
	}

	before := idleGoroutines()
	resp, err := http.Post(ts.URL+"/tensors", "text/plain", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "request body too large") {
		t.Fatalf("upload over MaxUploadBytes: %d %s", resp.StatusCode, raw)
	}
	waitGoroutines(t, before)

	_, ts, _ = newTestServer(t, Options{})
	before = idleGoroutines()
	// Longer than the parse pipeline's slots hold at 4 workers, so the
	// reader is still reading when the parse fails.
	bad := append([]byte("1 1 x 1\n"), bytes.Repeat(body.Bytes(), 8)...)
	resp, err = http.Post(ts.URL+"/tensors", "text/plain", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "line 1: bad coordinate") {
		t.Fatalf("upload with a bad first line: %d %s", resp.StatusCode, raw)
	}
	waitGoroutines(t, before)

	before = idleGoroutines()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /tensors HTTP/1.1\r\nHost: spblockd\r\nContent-Length: %d\r\n\r\n", body.Len())
	if _, err := conn.Write(body.Bytes()[:body.Len()/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGoroutines(t, before)
}
