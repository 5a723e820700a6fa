package engine

import (
	"fmt"

	"spblock/internal/core"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// NEngine is the order-N MultiModeExecutor: it builds and caches one
// mode-rooted executor per requested mode of an arbitrary-order tensor,
// exactly once per tensor. Third-order tensors are served by the
// order-3 core kernels behind a MultiModeExecutor (the fast path, with
// zero-copy permuted views of the input; BenchmarkOrder3FastPath
// measures it against NewNEngineGeneric); higher orders run on the
// pooled nmode CSF executors. Both families share one worker pool
// (sched.Pool) and differ only in their structures and kernels. Either way every mode's workspace is
// reused across the 10-1000s of Run calls of a decomposition, so
// steady-state products are allocation-free.
//
// The same concurrency rule as MultiModeExecutor applies: one NEngine
// must not Run the same mode concurrently with itself.
type NEngine struct {
	dims  []int
	fast  *MultiModeExecutor
	execs []*nmode.Executor
}

// NewNEngine builds executors for the requested modes (default: all)
// of t under opts. opts.Grid (one entry per mode, clamped) selects
// multi-dimensional blocking, opts.RankBlockCols rank strips — on the
// order-3 fast path they map onto the corresponding core methods
// (MB / RankB / MBRankB / SPLATT).
func NewNEngine(t *nmode.Tensor, opts nmode.Options, modes ...int) (*NEngine, error) {
	return newNEngine(t, opts, false, modes)
}

// NewNEngineGeneric is NewNEngine without the order-3 fast path: every
// mode runs on the generic N-mode CSF executors regardless of order.
// Cross-order equivalence tests use it to pin the generic kernels
// against the third-order references; production callers should prefer
// NewNEngine.
func NewNEngineGeneric(t *nmode.Tensor, opts nmode.Options, modes ...int) (*NEngine, error) {
	return newNEngine(t, opts, true, modes)
}

func newNEngine(t *nmode.Tensor, opts nmode.Options, generic bool, modes []int) (*NEngine, error) {
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
	e := &NEngine{dims: append([]int(nil), t.Dims...)}
	if n == 3 && !generic {
		coo, err := tensor.FromNMode(t)
		if err != nil {
			return nil, err
		}
		plan, err := planFromNOptions(opts, t.Dims)
		if err != nil {
			return nil, err
		}
		fast, err := NewMultiModeExecutor(coo, plan, modes...)
		if err != nil {
			return nil, err
		}
		e.fast = fast
		return e, nil
	}
	e.execs = make([]*nmode.Executor, n)
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

// planFromNOptions maps the N-mode kernel options onto the order-3
// method lattice: blocking and strips compose into MBRankB, either
// alone selects MB or RankB, neither the SPLATT baseline.
func planFromNOptions(opts nmode.Options, dims []int) (core.Plan, error) {
	plan := core.Plan{
		Workers:       opts.Workers,
		RankBlockCols: opts.RankBlockCols,
		Grid:          [3]int{1, 1, 1},
		Sched:         opts.Sched,
	}
	// Match the generic nmode.NewExecutor validation: a negative strip
	// width must not silently select SPLATT on the order-3 fast path.
	if opts.RankBlockCols < 0 {
		return plan, fmt.Errorf("engine: negative RankBlockCols %d", opts.RankBlockCols)
	}
	blocked := false
	if len(opts.Grid) != 0 {
		if len(opts.Grid) != 3 {
			return plan, fmt.Errorf("engine: grid %v for order-3 tensor", opts.Grid)
		}
		for m, g := range opts.Grid {
			if g < 1 {
				g = 1
			}
			if g > dims[m] {
				g = dims[m]
			}
			plan.Grid[m] = g
			if g > 1 {
				blocked = true
			}
		}
	}
	switch {
	case blocked && opts.RankBlockCols > 0:
		plan.Method = core.MethodMBRankB
	case blocked:
		plan.Method = core.MethodMB
	case opts.RankBlockCols > 0:
		plan.Method = core.MethodRankB
	default:
		plan.Method = core.MethodSPLATT
	}
	return plan, nil
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
	if e.fast != nil {
		return e.fast.Run(mode, [3]*la.Matrix{factors[0], factors[1], factors[2]}, out)
	}
	if e.execs[mode] == nil {
		return fmt.Errorf("engine: mode %d was not requested at construction", mode) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	return e.execs[mode].Run(factors, out)
}

// Metrics returns mode `mode`'s instrumentation collector, whichever
// executor family (order-3 fast path or generic N-mode) serves it.
func (e *NEngine) Metrics(mode int) (*metrics.Collector, error) {
	if mode < 0 || mode >= len(e.dims) {
		return nil, fmt.Errorf("engine: mode %d out of range [0,%d)", mode, len(e.dims))
	}
	if e.fast != nil {
		return e.fast.Metrics(mode)
	}
	if e.execs[mode] == nil {
		return nil, fmt.Errorf("engine: mode %d was not requested at construction", mode)
	}
	return e.execs[mode].Metrics(), nil
}

// Kernel reports the register-block kernel variant mode `mode`'s
// executor dispatches through, whichever executor family serves it
// (the zero Variant before that mode's first Run).
func (e *NEngine) Kernel(mode int) (kernel.Variant, error) {
	if mode < 0 || mode >= len(e.dims) {
		return kernel.Variant{}, fmt.Errorf("engine: mode %d out of range [0,%d)", mode, len(e.dims))
	}
	if e.fast != nil {
		return e.fast.Kernel(mode)
	}
	if e.execs[mode] == nil {
		return kernel.Variant{}, fmt.Errorf("engine: mode %d was not requested at construction", mode)
	}
	return e.execs[mode].Kernel(), nil
}

// Sched reports the resolved scheduler identity of mode `mode`'s
// executor (the internal/sched name constants; empty for sequential
// executors), whichever executor family serves it. Adaptive executors
// report their current layout, so a decomposition driver can watch a
// mode get promoted between sweeps.
func (e *NEngine) Sched(mode int) (string, error) {
	if mode < 0 || mode >= len(e.dims) {
		return "", fmt.Errorf("engine: mode %d out of range [0,%d)", mode, len(e.dims))
	}
	if e.fast != nil {
		return e.fast.Sched(mode)
	}
	if e.execs[mode] == nil {
		return "", fmt.Errorf("engine: mode %d was not requested at construction", mode)
	}
	return e.execs[mode].Sched(), nil
}

// SetWorkers re-sizes every built mode executor's parallelism mid-life,
// whichever executor family serves it: both run on sched.Pool, whose
// Resize keeps an adaptive executor's promotion. Must not be called
// while any mode is mid-Run.
func (e *NEngine) SetWorkers(n int) error {
	if e.fast != nil {
		return e.fast.SetWorkers(n)
	}
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

// Order returns the number of modes.
func (e *NEngine) Order() int { return len(e.dims) }

// Dims returns the tensor shape.
func (e *NEngine) Dims() []int { return e.dims }
