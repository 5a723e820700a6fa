package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"

	"spblock"
)

// endToEnd lists the metrics a user of the library sees, reported with
// --trace 0 on every workload; BENCHMARK.json "end_to_end" names the
// same set. What a "job" and an "upload" are differs per workload — see
// the workload files.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"sweep_s":       "s",
	"job_ms.p50":    "ms",
	"job_ms.p90":    "ms",
	"jobs_per_s":    "1/s",
	"upload_ms.p50": "ms",
	"peak_rss_mb":   "MB",
}

// perLayer lists the per-layer metrics a traced run reports. A workload
// that bypasses a layer reports its metrics as 0.
var perLayer = map[string]string{
	"tensor.parse_s":               "s",
	"tensor.parse_mb_per_s":        "MB/s",
	"server.fingerprint_s":         "s",
	"engine.build_s":               "s",
	"engine.build_mb":              "MB",
	"engine.mttkrp_s.mode0":        "s",
	"engine.mttkrp_s.mode1":        "s",
	"engine.mttkrp_s.mode2":        "s",
	"engine.mttkrp_share":          "fraction",
	"kernel.gflops":                "GFLOP/s",
	"kernel.flops_per_byte":        "flop/B_computed",
	"sched.imbalance":              "ratio",
	"sched.steals":                 "count",
	"als.solve_s":                  "s",
	"als.fit_s":                    "s",
	"als.allocs_per_sweep":         "count",
	"als.alloc_mb_per_sweep":       "MB",
	"server.queue_ms.p50":          "ms",
	"server.queue_ms.p90":          "ms",
	"server.service_ms.p50.cpals":  "ms",
	"server.service_ms.p50.mttkrp": "ms",
	"server.service_ms.p50.cpapr":  "ms",
	"server.cache_hit_ratio":       "fraction",
	"server.builds":                "count",
	"server.evictions":             "count",
	"server.upload_dedup_ratio":    "fraction",
	"server.rejected":              "count",
	"ooc.stage_s":                  "s",
	"ooc.mttkrp_s":                 "s",
	"ooc.io_wait_frac":             "fraction",
	"ooc.prefetch_s":               "s",
	"ooc.overlap_frac":             "fraction",
	"ooc.working_set_mb":           "MB",
	"trace.unattributed_frac":      "fraction",
	"trace.overhead_frac":          "fraction",
}

// set records a metric value under its declared unit.
func (r *result) set(name string, v float64) {
	if u, ok := endToEnd[name]; ok {
		r.e2e[name] = metric{Value: v, Unit: u}
		return
	}
	u, ok := perLayer[name]
	if !ok {
		panic("spbench: undeclared metric " + name)
	}
	r.layer[name] = metric{Value: v, Unit: u}
}

// complete fills every per-layer metric the workload bypassed with 0
// and reports any missing end-to-end metric, a bug in the workload.
func (r *result) complete() error {
	for name := range endToEnd {
		if _, ok := r.e2e[name]; !ok {
			return fmt.Errorf("workload did not report %s", name)
		}
	}
	for name, unit := range perLayer {
		if _, ok := r.layer[name]; !ok {
			r.layer[name] = metric{Value: 0, Unit: unit}
		}
	}
	for name, m := range r.e2e {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s is %v", name, m.Value)
		}
	}
	for name, m := range r.layer {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.layer[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// startPeak returns freed memory to the operating system and resets the
// process's resident-memory high-water mark, so peakRSSMB then reports
// the peak of what runs next. The in-memory and streaming workloads
// measure their warm-up decomposition this way: the resident peak of a
// ready decomposition at work (tensor or working set, built structures,
// one decomposition's workspaces and garbage). The set-up before it is
// left out because its transient peak depends on when the collector
// happens to run: the same input reads 395 or 476 MB on als-kernel. The
// window after it is left out because it only repeats the decomposition,
// adding garbage that grows with the number of jobs a run completes.
func startPeak() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// kernelTotals sums the executors' always-on collector counters over a
// window (after minus before), per mode.
type kernelTotals struct {
	flops, bytesEst, wallNS float64
	maxWorkerNS, meanNS     float64
	steals                  float64
}

// addSnapshotDelta accumulates one mode's counters between two
// snapshots of the same collector at rank r. Flops follow the paper's
// Equation 2, W = 2·R·(nnz + F) per product; the collector counts nnz
// and fibers once per rank-strip walk, so the stored counts are the
// totals divided by the walks per run. bytesEst is the collector's
// Equation 1 estimate: computed from the structure, not measured.
func (k *kernelTotals) addSnapshotDelta(before, after spblock.KernelSnapshot, r int) {
	runs := after.Runs - before.Runs
	if runs <= 0 {
		return
	}
	walks := float64(max((after.Strips-before.Strips)/runs, 1))
	nnz := float64(after.NNZ - before.NNZ)
	fib := float64(after.Fibers - before.Fibers)
	k.flops += 2 * float64(r) * (nnz + fib) / walks
	k.bytesEst += float64(after.BytesEst - before.BytesEst)
	k.wallNS += float64(after.WallNS - before.WallNS)
	var sumW, maxW float64
	for w := range after.WorkerNS {
		d := float64(after.WorkerNS[w])
		if w < len(before.WorkerNS) {
			d -= float64(before.WorkerNS[w])
		}
		sumW += d
		maxW = math.Max(maxW, d)
	}
	if n := len(after.WorkerNS); n > 0 {
		k.maxWorkerNS += maxW
		k.meanNS += sumW / float64(n)
	}
	k.steals += float64(after.Steals() - before.Steals())
}

// report sets the kernel and scheduler metrics. Imbalance is the
// time-weighted max/mean worker busy time across modes. No roofline
// fraction is reported: this run does not measure machine bandwidth.
func (k *kernelTotals) report(r *result) {
	r.set("kernel.gflops", ratio(k.flops, k.wallNS))
	r.set("kernel.flops_per_byte", ratio(k.flops, k.bytesEst))
	r.set("sched.imbalance", ratio(k.maxWorkerNS, k.meanNS))
	r.set("sched.steals", k.steals)
}
