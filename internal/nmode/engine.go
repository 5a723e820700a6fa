package nmode

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
)

// Engine builds one mode-rooted Executor per requested mode of a
// tensor of any order, once, and serves every product of a
// decomposition from them: the mode products are structurally
// identical (Sec. III-B), so factors are indexed by mode and nothing is
// permuted, and steady-state Runs are allocation-free. One Engine must
// not Run the same mode concurrently with itself; distinct modes may
// run from different goroutines.
type Engine struct {
	dims  []int
	execs []*Executor
}

// NewEngine builds executors for the requested modes (default: all)
// of t under opts. t and opts are validated once, here; the per-mode
// builds do not re-check them. The distinct modes are built
// concurrently by min(opts.Workers, #modes) goroutines (Workers 0:
// GOMAXPROCS), each mode by one of them, so the engine is the one a
// sequential build makes; on failure the error is that of the first
// failing mode in request order. An AlgCOO engine aliases t's storage,
// so values rewritten in place between runs are seen by the next run.
func NewEngine(t *Tensor, opts Options, modes ...int) (*Engine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.Order()
	if n < 2 {
		return nil, fmt.Errorf("nmode: executors need order >= 2, got %d", n)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(modes) == 0 {
		modes = make([]int, n)
		for m := range modes {
			modes[m] = m
		}
	}
	for _, m := range modes {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("nmode: mode %d out of range [0,%d)", m, n)
		}
	}
	e := &Engine{dims: append([]int(nil), t.Dims...), execs: make([]*Executor, n)}
	todo := make([]int, 0, len(modes))
	for _, m := range modes {
		if !slices.Contains(todo, m) {
			todo = append(todo, m)
		}
	}
	errs := make([]error, len(todo))
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each builder claims the next unbuilt mode; every mode is built by
	// exactly one of them from the read-only t, so the result does not
	// depend on the worker count.
	var next atomic.Int64
	build := func() {
		for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
			e.execs[todo[i]], errs[i] = buildExecutor(t, todo[i], opts)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Run computes out = MTTKRP over mode `mode`. factors is indexed by
// mode with one entry per mode (the output mode's entry may be nil);
// out must be dims[mode] rows.
//
//spblock:hotpath
func (e *Engine) Run(mode int, factors []*la.Matrix, out *la.Matrix) error {
	ex, err := e.executor(mode)
	if err != nil {
		return err
	}
	return ex.Run(factors, out)
}

// executor returns mode `mode`'s built executor.
//
//spblock:hotpath
func (e *Engine) executor(mode int) (*Executor, error) {
	if mode < 0 || mode >= len(e.dims) {
		return nil, fmt.Errorf("nmode: mode %d out of range [0,%d)", mode, len(e.dims)) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	if e.execs[mode] == nil {
		return nil, fmt.Errorf("nmode: mode %d was not requested at construction", mode) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	return e.execs[mode], nil
}

// Metrics returns mode `mode`'s instrumentation collector.
func (e *Engine) Metrics(mode int) (*metrics.Collector, error) {
	ex, err := e.executor(mode)
	if err != nil {
		return nil, err
	}
	return ex.Metrics(), nil
}

// Kernel reports the register-block kernel variant mode `mode`'s
// executor dispatches through (the zero Variant before that mode's
// first Run).
func (e *Engine) Kernel(mode int) (kernel.Variant, error) {
	ex, err := e.executor(mode)
	if err != nil {
		return kernel.Variant{}, err
	}
	return ex.Kernel(), nil
}

// SetWorkers re-sizes every built mode executor's parallelism mid-life
// (see Executor.SetWorkers). Must not be called while any mode is
// mid-Run.
func (e *Engine) SetWorkers(n int) error {
	for _, ex := range e.execs {
		if ex == nil {
			continue
		}
		if err := ex.SetWorkers(n); err != nil {
			return err
		}
	}
	return nil
}

// Workers reports the parallelism of the built mode executors: they
// share one Options at construction and are re-sized together by
// SetWorkers.
func (e *Engine) Workers() int {
	for _, ex := range e.execs {
		if ex != nil {
			return ex.Workers()
		}
	}
	return 0
}

// MemoryBytes sums the preprocessed-structure footprint of every built
// mode executor — what a serving cache charges one cached multi-mode
// stack against its byte budget.
func (e *Engine) MemoryBytes() int64 {
	var s int64
	for _, ex := range e.execs {
		if ex != nil {
			s += ex.MemoryBytes()
		}
	}
	return s
}

// Order returns the number of modes.
func (e *Engine) Order() int { return len(e.dims) }

// Dims returns the tensor shape.
func (e *Engine) Dims() []int { return e.dims }
