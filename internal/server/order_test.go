package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"spblock/internal/nmode"
)

// uploadBody posts x as a .tns body and decodes the reply.
func uploadBody(t *testing.T, url string, x *nmode.Tensor) uploadResponse {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	return up
}

// TestOrder4Upload: the service takes an upload of any order. An
// order-4 tensor runs cpals and mttkrp jobs through its cached engine;
// CP-APR, defined here for third-order tensors only, refuses it with a
// 4xx; and an order-3 body re-uploaded in another storage order still
// hits the cache.
func TestOrder4Upload(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x4 := poisson(t, []int{12, 10, 8, 6}, 2000, 3)
	up := uploadBody(t, ts.URL, x4)
	if !slices.Equal(up.Dims, x4.Dims) || up.NNZ != x4.NNZ() || up.Cached {
		t.Fatalf("order-4 upload reply %+v, want dims %v nnz %d uncached", up, x4.Dims, x4.NNZ())
	}
	code, jr, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: up.Fingerprint, Kind: "cpals", Rank: 4, MaxIters: 5})
	if code != http.StatusOK || jr.Iters == 0 || !(jr.Fit > 0) {
		t.Fatalf("order-4 cpals job: %d %s", code, raw)
	}
	code, jr, raw = postJob(t, ts.URL, "", jobRequest{Fingerprint: up.Fingerprint, Kind: "mttkrp", Rank: 4, Reps: 2})
	if code != http.StatusOK || len(jr.ModeSnap) != 4 || jr.ModeSnap[3].Runs < 2 {
		t.Fatalf("order-4 mttkrp job: %d %s", code, raw)
	}
	code, _, raw = postJob(t, ts.URL, "", jobRequest{Fingerprint: up.Fingerprint, Kind: "cpapr", Rank: 4, MaxIters: 2})
	if code < 400 || code >= 500 {
		t.Fatalf("order-4 cpapr job: status %d, want 4xx: %s", code, raw)
	}

	x3 := poisson(t, []int{15, 12, 10}, 600, 4)
	first := uploadBody(t, ts.URL, x3)
	again := uploadBody(t, ts.URL, shuffled(x3, 5))
	if first.Cached || !again.Cached || again.Fingerprint != first.Fingerprint {
		t.Fatalf("order-3 re-upload: first %+v, shuffled %+v; want the second cached under the same fingerprint", first, again)
	}
	if got := s.cache.Stats().Entries; got != 2 {
		t.Errorf("entries = %d, want 2", got)
	}
}

// TestHugeRankRejected: a rank whose factor matrices would overflow,
// or exceed maxFactorElems, is refused with 400 before any job runs,
// for every job kind, and the served-job counters stay unchanged.
func TestHugeRankRejected(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	outcomes := []string{"done", "failed", "canceled", "rejected"}
	served := func() (n int64) {
		m := scrape(t, ts.URL)
		for _, o := range outcomes {
			n += metricValue(t, m, `spblockd_jobs_total{outcome="`+o+`"}`)
		}
		return n
	}
	before := served()
	over := maxFactorElems/(30+24+20) + 1
	for _, kind := range []string{"mttkrp", "cpals", "cpapr"} {
		for _, rank := range []int{1 << 62, over} {
			code, _, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: kind, Rank: rank, MaxIters: 1})
			if code != http.StatusBadRequest {
				t.Errorf("%s job at rank %d: status %d, want 400: %s", kind, rank, code, raw)
			}
		}
	}
	// cpals also holds order+4 rank × rank matrices: at rank 10000 the
	// 30x24x20 tensor's factors fit the bound but its Grams do not.
	if code, _, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpals", Rank: 10000, MaxIters: 1}); code != http.StatusBadRequest {
		t.Errorf("cpals job at rank 10000: status %d, want 400: %s", code, raw)
	}
	if got := served(); got != before {
		t.Errorf("served jobs %d after the rejected ranks, want %d", got, before)
	}
	if code, _, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "mttkrp", Rank: 4}); code != http.StatusOK {
		t.Fatalf("mttkrp job after the rejections: %d %s", code, raw)
	}
}

// TestCPAPRWorkerOutputsBounded: a cpapr job's COO executors keep one
// private output per worker and mode, workers × rank × Σ dims elements
// in all, and checkRank counts them. On the 30x24x20 upload at rank
// 15000 the factors fit maxFactorElems 2 times over but not 257 times,
// so 256 workers are refused with 400 before the job allocates
// (2.3 GB of outputs), and 1 worker still runs.
func TestCPAPRWorkerOutputsBounded(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	const rank, rows = 15000, 30 + 24 + 20
	if 2*rank*rows > maxFactorElems || 257*rank*rows <= maxFactorElems {
		t.Fatalf("rank %d does not straddle the bound", rank)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	code, _, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpapr", Rank: rank, MaxIters: 1, Workers: 256})
	runtime.ReadMemStats(&ms)
	if code != http.StatusBadRequest {
		t.Fatalf("cpapr job on 256 workers: status %d, want 400: %s", code, raw)
	}
	// The factors alone would be rank × rows × 8 bytes = 8.9 MB.
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Errorf("refused job allocated %d bytes", grew)
	}
	if code, _, raw := postJob(t, ts.URL, "", jobRequest{Fingerprint: fp, Kind: "cpapr", Rank: rank, MaxIters: 1, Workers: 1}); code != http.StatusOK {
		t.Fatalf("cpapr job on 1 worker: status %d, want 200: %s", code, raw)
	}
}
