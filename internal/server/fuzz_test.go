package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// FuzzUpload posts arbitrary bodies to /tensors. Every reply must be
// 200 or 4xx, never a panic or a 5xx; a body is accepted exactly when
// nmode.ReadTNS followed by tensor.Dedup accepts it, and an accepted
// reply's dims and nnz are theirs.
func FuzzUpload(f *testing.F) {
	seeds := []string{
		"1 1 1 5.0\n",
		"# dims: 4 3 2\n1 2 1 -1\n4 3 2 2.5\n4 3 2 2.5\n",
		"2 3 1 4 -2\n1 1 1 1 1\n2 3 1 4 0.5\n",
		"# dims: 3 4\n",
		"# dims: 5\n",
		"# dims: 0 0 0\n",
		"",
		"# comment only\n",
		"1 1 1 nan\n1 1 1 inf\n",
		"1\t2\t3\t4\r\n3 2 1 1e-300\r\n",
		"1 1 1 1\n1 1 1 1 1\n",
		"0 1 1 1\n",
		"1 1 1 x\n",
		"1 1 1 1\n2147483647 1 1 2\n1 1 1 3\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Options{Cache: CacheConfig{MaxBytes: 1 << 20}})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := nmode.ReadTNS(bytes.NewReader(body))
		if werr == nil {
			_, werr = tensor.Dedup(want)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tensors", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			if werr != nil {
				t.Fatalf("upload accepted a body ReadTNS+Dedup rejects: %v", werr)
			}
			var up uploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
				t.Fatalf("undecodable reply %q: %v", rec.Body, err)
			}
			if !slices.Equal(up.Dims, want.Dims) || up.NNZ != want.NNZ() {
				t.Fatalf("reply dims %v nnz %d, want %v nnz %d", up.Dims, up.NNZ, want.Dims, want.NNZ())
			}
		case rec.Code >= 400 && rec.Code < 500:
			if werr == nil {
				t.Fatalf("upload rejected (%d %q) a body ReadTNS+Dedup accepts", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("reply %d %q", rec.Code, rec.Body)
		}
	})
}

// FuzzJob posts arbitrary job bodies against a small seeded upload
// (6x5x4) to /jobs. Every reply must be 200 or 4xx, never a panic or
// a 5xx, and no request may allocate more than fuzzJobAllocBudget: with
// ranks capped at fuzzJobMaxRank, that budget is far past any bounded
// job's needs, so only a field that sizes memory outside the rank and
// maxIters bounds can exceed it. Each request runs under a one-second
// deadline, so a legal but endless job (a huge maxIters at tol 1e-300,
// say) ends in the 504 its deadline calls for; a 504 counts only when a
// deadline fired. Bodies that decode to a legal rank above
// fuzzJobMaxRank, or to more than fuzzJobMaxWorkers workers, are
// skipped: they cost memory and time, not coverage of the boundary.
func FuzzJob(f *testing.F) {
	const (
		fuzzJobMaxRank     = 16
		fuzzJobMaxWorkers  = 4
		fuzzJobAllocBudget = 64 << 20
	)
	s := New(Options{Cache: CacheConfig{
		MaxBytes: 1 << 22,
		Plan:     core.Plan{Method: core.MethodSPLATT, Grid: [3]int{1, 1, 1}, Workers: 2},
	}})
	h := s.Handler()
	x, err := gen.PoissonN(gen.PoissonNParams{Dims: []int{6, 5, 4}, Events: 60}, 3)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nmode.WriteTNS(&buf, x); err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tensors", &buf))
	var up uploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != http.StatusOK {
		f.Fatalf("seed upload: %d %q", rec.Code, rec.Body)
	}
	fp := up.Fingerprint
	for _, kind := range []string{"cpals", "mttkrp", "cpapr"} {
		f.Add([]byte(fmt.Sprintf(`{"fingerprint":%q,"kind":%q,"rank":3,"maxIters":2}`, fp, kind)))
		f.Add([]byte(fmt.Sprintf(`{"fingerprint":%q,"kind":%q,"rank":2,"maxIters":3,"tol":1e-9,"seed":-7,"reps":2,"workers":3}`, fp, kind)))
		f.Add([]byte(fmt.Sprintf(`{"fingerprint":%q,"kind":%q,"rank":4,"maxIters":-1,"workers":-2,"reps":-3,"timeoutMs":-1}`, fp, kind)))
		f.Add([]byte(fmt.Sprintf(`{"fingerprint":%q,"kind":%q,"rank":100000000,"maxIters":1}`, fp, kind)))
		f.Add([]byte(fmt.Sprintf(`{"fingerprint":%q,"kind":%q,"rank":2,"workers":1000000000}`, fp, kind)))
	}
	for _, body := range []string{
		`{}`, `[]`, `null`, `{"rank":1}`, `{"kind":"cpals","rank":1e30}`,
		`{"fingerprint":"` + fp + `","kind":"cpals","rank":2,"maxIters":4611686018427387904,"tol":1e-300}`,
		`{"fingerprint":"` + fp + `","kind":"mttkrp","rank":2,"reps":4611686018427387904,"timeoutMs":50}`,
		`{"fingerprint":"` + fp + `","kind":"cpals","rank":5000}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			legal := req.Rank > 0 && checkRank(req.Kind, req.Rank, req.Workers, x.Dims) == nil
			if legal && req.Rank > fuzzJobMaxRank || req.Workers > fuzzJobMaxWorkers && req.Workers <= maxJobWorkers {
				t.Skip("legal but costly job")
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)).WithContext(ctx))
		runtime.ReadMemStats(&ms)
		timedOut := rec.Code == http.StatusGatewayTimeout && (req.TimeoutMs > 0 || ctx.Err() != nil)
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) && !timedOut {
			t.Fatalf("reply %d %q", rec.Code, rec.Body)
		}
		if grew := ms.TotalAlloc - before; grew > fuzzJobAllocBudget {
			t.Fatalf("job allocated %d bytes, budget %d", grew, fuzzJobAllocBudget)
		}
	})
}
