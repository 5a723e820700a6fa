// Command spblockd runs the multi-tenant decomposition service: a
// long-running HTTP server that accepts FROSTT-style .tns uploads and
// serves MTTKRP / CP-ALS / CP-APR jobs to concurrent clients, reusing
// one cached executor stack per distinct tensor (see internal/server).
//
// Usage:
//
//	spblockd -addr :8080 -method splatt -workers 4 -max-bytes 1073741824
//
// Endpoints:
//
//	POST /tensors   upload a .tns body; responds with its fingerprint
//	POST /jobs      run a job: {"fingerprint":..., "kind":"cpals", "rank":8, ...}
//	GET  /metrics   Prometheus-style scrape of job, cache and executor state
//	GET  /healthz   liveness probe
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"spblock/internal/core"
	"spblock/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		method  = flag.String("method", "splatt", "cached executors' kernel: coo|splatt|mb|rankb|mbrankb")
		grid    = flag.String("grid", "", "explicit MB grid QxRxS (with -method mb|mbrankb)")
		bs      = flag.Int("bs", 0, "explicit RankB strip width in columns")
		workers = flag.Int("workers", 0, "per-executor parallelism (0 = GOMAXPROCS)")
		conc    = flag.Int("concurrency", 0, "max jobs running at once (0 = GOMAXPROCS)")
		quota   = flag.Int("tenant-quota", 0, "max in-flight jobs per tenant (0 = concurrency)")
		budget  = flag.Int64("max-bytes", 0, "executor cache byte budget (0 = unlimited)")
	)
	flag.Parse()

	m, err := core.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	plan := core.Plan{Method: m, Grid: [3]int{1, 1, 1}, RankBlockCols: *bs, Workers: *workers}
	if *grid != "" {
		if plan.Grid, err = core.ParseGrid(*grid); err != nil {
			fatal(fmt.Errorf("bad -grid: %w", err))
		}
	}

	s := server.New(server.Options{
		Cache:         server.CacheConfig{MaxBytes: *budget, Plan: plan},
		MaxConcurrent: *conc,
		TenantQuota:   *quota,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("spblockd listening on %s (plan %s)\n", *addr, plan)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spblockd:", err)
	os.Exit(1)
}
