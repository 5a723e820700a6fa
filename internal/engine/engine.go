// Package engine is the shared execution layer between the nmode
// executors and the decomposition drivers (cpd, cpapr, dist, spblockd):
// it builds one mode-rooted executor per requested mode of a tensor,
// exactly once, and amortises that preprocessing across an entire
// decomposition. NEngine serves tensors of any order under
// nmode.Options; MultiModeExecutor is its order-3 face under a
// core.Plan, which names one of the paper's kernels.
//
// Every mode's product runs on the same nmode executor family (the
// three products are structurally identical — Sec. III-B), so factors
// are indexed by mode and no mode permutation is needed. Each
// executor's pooled workspace makes the 10–1000s of Run calls of a
// CP-ALS sweep allocation-free in steady state.
package engine

import (
	"fmt"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/tensor"
)

// MultiModeExecutor serves MTTKRP for several modes of one third-order
// tensor under a core.Plan: an NEngine built with the plan's
// core.Plan.Options. A decomposition driver constructs it up front and
// then calls Run per mode per sweep.
//
// The embedded NEngine supplies Metrics, Sched, Kernel, SetWorkers,
// Workers and MemoryBytes. One MultiModeExecutor must not Run the same
// mode concurrently with itself; distinct modes have distinct executors
// and workspaces, so running different modes from different goroutines
// is safe.
type MultiModeExecutor struct {
	NEngine
	dims tensor.Dims
	plan core.Plan
	// ops holds each mode's operands for the duration of its Run, so
	// Run hands the executor a slice without allocating one.
	ops [3][3]*la.Matrix
}

// NewMultiModeExecutor builds executors for the requested modes
// (default: all three) of t under plan. The plan's grid is indexed by
// mode and clamped to the mode lengths. With MethodCOO the executors
// alias t's storage, so rewriting t.Val in place between runs is seen
// by the next run; other methods copy what they need during
// preprocessing.
func NewMultiModeExecutor(t *tensor.COO, plan core.Plan, modes ...int) (*MultiModeExecutor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	opts, err := plan.Options()
	if err != nil {
		return nil, err
	}
	ne, err := NewNEngine(tensor.ToNMode(t), opts, modes...)
	if err != nil {
		return nil, err
	}
	return &MultiModeExecutor{NEngine: *ne, dims: t.Dims, plan: normalizePlan(plan, t.Dims)}, nil
}

// normalizePlan is plan as its executors run it: the grid defaulted
// to {1,1,1} when zero and clamped to [1, dim] per mode.
func normalizePlan(plan core.Plan, dims tensor.Dims) core.Plan {
	if plan.Grid == ([3]int{}) {
		plan.Grid = [3]int{1, 1, 1}
	}
	for m, g := range plan.Grid {
		plan.Grid[m] = min(max(g, 1), dims[m])
	}
	return plan
}

// Run computes out = MTTKRP over mode n; factors is indexed by mode
// (factors[n] is not read). out must be dims[n] rows.
//
//spblock:hotpath
func (m *MultiModeExecutor) Run(n int, factors [3]*la.Matrix, out *la.Matrix) error {
	if n < 0 || n > 2 {
		return fmt.Errorf("engine: mode %d out of range [0,2]", n) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	ops := &m.ops[n]
	*ops = factors
	err := m.NEngine.Run(n, ops[:], out)
	*ops = [3]*la.Matrix{}
	return err
}

// Plan returns the plan the executors run, its grid normalised.
func (m *MultiModeExecutor) Plan() core.Plan { return m.plan }

// Dims returns the tensor shape.
func (m *MultiModeExecutor) Dims() tensor.Dims { return m.dims }
