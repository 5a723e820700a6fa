package engine

import (
	"fmt"

	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
)

// NEngine builds and caches one mode-rooted nmode.Executor per
// requested mode of an arbitrary-order tensor, exactly once per
// tensor, at every order. Each mode's workspace is reused across the
// 10-1000s of Run calls of a decomposition, so steady-state products
// are allocation-free.
//
// One NEngine must not Run the same mode concurrently with itself;
// distinct modes may run from different goroutines.
type NEngine struct {
	dims  []int
	execs []*nmode.Executor
}

// NewNEngine builds executors for the requested modes (default: all)
// of t under opts. opts.Grid (one entry per mode, clamped) selects
// multi-dimensional blocking, opts.RankBlockCols rank strips.
func NewNEngine(t *nmode.Tensor, opts nmode.Options, modes ...int) (*NEngine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.Order()
	if n < 2 {
		return nil, fmt.Errorf("engine: order-%d tensor needs order >= 2", n)
	}
	if len(modes) == 0 {
		modes = make([]int, n)
		for m := range modes {
			modes[m] = m
		}
	}
	for _, m := range modes {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("engine: mode %d out of range [0,%d)", m, n)
		}
	}
	e := &NEngine{dims: append([]int(nil), t.Dims...), execs: make([]*nmode.Executor, n)}
	for _, m := range modes {
		if e.execs[m] != nil {
			continue
		}
		ex, err := nmode.NewExecutor(t, m, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: mode %d: %w", m, err)
		}
		e.execs[m] = ex
	}
	return e, nil
}

// Run computes out = MTTKRP over mode `mode`. factors is indexed by
// mode with one entry per mode (the output mode's entry may be nil);
// out must be dims[mode] rows.
//
//spblock:hotpath
func (e *NEngine) Run(mode int, factors []*la.Matrix, out *la.Matrix) error {
	n := len(e.dims)
	if mode < 0 || mode >= n {
		return fmt.Errorf("engine: mode %d out of range [0,%d)", mode, n) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	if len(factors) != n {
		return fmt.Errorf("engine: %d factors for order-%d tensor", len(factors), n) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	if e.execs[mode] == nil {
		return fmt.Errorf("engine: mode %d was not requested at construction", mode) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	return e.execs[mode].Run(factors, out)
}

// Metrics returns mode `mode`'s instrumentation collector.
func (e *NEngine) Metrics(mode int) (*metrics.Collector, error) {
	if mode < 0 || mode >= len(e.dims) {
		return nil, fmt.Errorf("engine: mode %d out of range [0,%d)", mode, len(e.dims))
	}
	if e.execs[mode] == nil {
		return nil, fmt.Errorf("engine: mode %d was not requested at construction", mode)
	}
	return e.execs[mode].Metrics(), nil
}

// Kernel reports the register-block kernel variant mode `mode`'s
// executor dispatches through (the zero Variant before that mode's
// first Run).
func (e *NEngine) Kernel(mode int) (kernel.Variant, error) {
	if mode < 0 || mode >= len(e.dims) {
		return kernel.Variant{}, fmt.Errorf("engine: mode %d out of range [0,%d)", mode, len(e.dims))
	}
	if e.execs[mode] == nil {
		return kernel.Variant{}, fmt.Errorf("engine: mode %d was not requested at construction", mode)
	}
	return e.execs[mode].Kernel(), nil
}

// Sched reports the resolved scheduler identity of mode `mode`'s
// executor (the internal/sched name constants; empty for sequential
// executors). Adaptive executors report their current layout, so a
// decomposition driver can watch a mode get promoted between sweeps.
func (e *NEngine) Sched(mode int) (string, error) {
	if mode < 0 || mode >= len(e.dims) {
		return "", fmt.Errorf("engine: mode %d out of range [0,%d)", mode, len(e.dims))
	}
	if e.execs[mode] == nil {
		return "", fmt.Errorf("engine: mode %d was not requested at construction", mode)
	}
	return e.execs[mode].Sched(), nil
}

// SetWorkers re-sizes every built mode executor's parallelism mid-life:
// sched.Pool's Resize keeps an adaptive executor's promotion. Must not
// be called while any mode is mid-Run.
func (e *NEngine) SetWorkers(n int) error {
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
func (e *NEngine) Workers() int {
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
func (e *NEngine) MemoryBytes() int64 {
	var s int64
	for _, ex := range e.execs {
		if ex != nil {
			s += ex.MemoryBytes()
		}
	}
	return s
}

// Order returns the number of modes.
func (e *NEngine) Order() int { return len(e.dims) }

// Dims returns the tensor shape.
func (e *NEngine) Dims() []int { return e.dims }
