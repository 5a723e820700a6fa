package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"spblock/internal/core"
	"spblock/internal/testutil/digest"
)

// TestGoldenCPALSReply pins the service's cpals reply bit for bit on
// the CI service smoke's input: `tensorgen -dims 30x24x20 -nnz 1200
// -kind poisson -seed 7` uploaded to a service whose cached executors
// run SPLATT on 2 workers (spblockd -workers 2), then a rank-6 job of
// at most 8 sweeps at tol 1e-9. The fit is recorded as %x; Go compiles
// float64 arithmetic without fused multiply-adds only on amd64, so
// other architectures skip.
func TestGoldenCPALSReply(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded for amd64 float64 arithmetic")
	}
	s := New(Options{Cache: CacheConfig{Plan: core.Plan{Method: core.MethodSPLATT, Grid: [3]int{1, 1, 1}, Workers: 2}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// tensorgen's poisson kind draws nnz + nnz/8 events.
	x := poisson(t, []int{30, 24, 20}, 1200+1200/8, 7)
	if got, want := digest.Tensor(x), "000bdcdb4ac344e58ecba875d958479bcd1792902d4146f4801aab59d1d8108c"; got != want {
		t.Fatalf("input digest %s, want tensorgen's %s", got, want)
	}
	fp := upload(t, ts.URL, x)
	if want := "dc3ce01610044e53d72d3d00060dd02c3cd453baccfab1e2a17f87d08fb01236"; fp != want {
		t.Errorf("fingerprint %s, want %s", fp, want)
	}
	code, jr, raw := postJob(t, ts.URL, "ci", jobRequest{Fingerprint: fp, Kind: "cpals", Rank: 6, MaxIters: 8, Tol: 1e-9})
	if code != http.StatusOK {
		t.Fatalf("cpals job: %d %s", code, raw)
	}
	got := fmt.Sprintf("iters=%d plan=%q fit=%x", jr.Iters, jr.Plan, jr.Fit)
	if want := `iters=8 plan="SPLATT" fit=0x1.ccb1460ab7f94p-02`; got != want {
		t.Errorf("reply %s, want %s", got, want)
	}
}
