// Command spbench is the spblock end-to-end benchmark. It runs one named
// workload from a seed, checks the library's outputs, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bash spbench/run.sh --workload als-kernel --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run records spans around every call
// into the library and reports the per-layer ones ("per_layer").
//
// Inputs are generated from the seed by a child process (the same
// binary with -gen), so generation never touches the measured process's
// memory high-water mark or heap: the measured process sees only the
// generated .tns files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every generated input. The command always runs the
	// workload as defined (1); only the benchmark's own tests set it.
	scale float64
	// dir holds the generated inputs and any staging output.
	dir string
	// traceOut is where a traced run writes its spans.
	traceOut string
	// perturb corrupts one checked result so tests can prove the checks
	// fail; never set by the command line.
	perturb bool
}

// workloads maps each workload name to its generator and runner.
var workloads = map[string]struct {
	gen func(cfg config) error
	run func(cfg config, tr *tracer) (*result, error)
}{
	"als-kernel":  {genALS, runALS},
	"als-solve":   {genALS, runALS},
	"serve-mixed": {genServe, runServe},
	"ooc-stream":  {genOOC, runOOC},
}

func main() {
	cfg := config{scale: 1}
	var traceFlag int
	var work string
	genOnly := flag.Bool("gen", false, "generate the workload's inputs into -dir and exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload name: als-kernel, als-solve, serve-mixed or ooc-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the generated tensors, factor init and job sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	flag.StringVar(&work, "work", ".bench_build", "scratch directory for inputs, staging and traces")
	flag.StringVar(&cfg.dir, "dir", "", "input directory (with -gen)")
	flag.Parse()

	w, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q", cfg.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	cfg.trace = traceFlag == 1
	if *genOnly {
		if err := w.gen(cfg); err != nil {
			fatalf("generating %s inputs: %v", cfg.workload, err)
		}
		return
	}

	cfg.dir = filepath.Join(work, fmt.Sprintf("in-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	cfg.traceOut = filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	res, err := runWorkload(cfg, w.run)
	if rmErr := os.RemoveAll(cfg.dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "spbench: removing inputs:", rmErr)
	}
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.print(cfg)
}

// runWorkload generates the inputs in a child process, then runs the
// workload in this one.
func runWorkload(cfg config, run func(config, *tracer) (*result, error)) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-gen", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-dir", cfg.dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("input generation: %w", err)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := run(cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := res.complete(); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintln(os.Stderr, "spbench: spans written to", cfg.traceOut)
	}
	return res, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports. Operations are counted so
// failed/attempted is the run's ops_failed_frac: an error, a non-200
// response or a failed correctness check is one failed operation.
type result struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]metric
	// notes are printed as human-readable lines before the result.
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check counts one correctness check as an operation.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check failed: "+format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// hostRecord is printed with every result so runs on different hosts or
// toolchains are never compared by accident.
func hostRecord(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// print writes the human-readable lines and then the result line.
func (r *result) print(cfg config) {
	host, _ := json.Marshal(hostRecord(cfg)) // plain map of scalars: cannot fail
	fmt.Println("host", string(host))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, f := range r.failures {
		fmt.Println("failure:", f)
	}
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("ops_failed_frac %.6f (%d of %d operations)\n", frac, r.failed, r.attempted)
	metrics := r.e2e
	if cfg.trace {
		metrics = r.layer
	}
	names := sortedKeys(metrics)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		// Only a NaN or Inf metric can get here; report it rather than a
		// result line a reader would misparse.
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}
