// Package sched owns the work-distribution contract for the blocked
// MTTKRP executors, the way internal/kernel owns the accumulate
// contract: how a run's work units — CSF slice ranges, multi-block
// layers, COO nonzero ranges, fiber-tree root ranges — are carved into
// shares and handed to the prebuilt worker goroutines.
//
// Four pieces compose:
//
//   - Shares / UniformChunks: the single weighted-partition routine
//     both internal/core and internal/nmode previously duplicated
//     (and both got subtly wrong on skewed weights — see Shares).
//   - Queue: the per-executor distribution state. It precomputes a
//     static layout (one contiguous share per worker, bit-identical
//     to the historical behaviour) and, when the plan asks for it, a
//     chunked work-stealing layout (many weight-balanced chunks,
//     per-worker segments, forward-only atomic cursors). Both are
//     built on the cold path; the hot Next path is zero-allocation.
//   - Controller: the adaptive half. Fed the measured per-window
//     imbalance from internal/metrics, it promotes an executor from
//     the static layout to the stealing layout when the imbalance
//     stays above a threshold for a fixed number of runs.
//   - Pool: the one worker pool both executor families run on. It
//     owns the prebuilt worker goroutine bodies, the Queue, the
//     Policy, the Controller and the per-worker metrics buckets; an
//     executor only supplies its work units and a body per unit range.
//
// The package sits below core/nmode/engine and imports nothing from
// them, so every executor layer can share it without cycles.
package sched

import "fmt"

// Policy selects how an executor distributes work units to workers.
type Policy uint8

const (
	// PolicyStatic is the paper's layout-driven split: each worker owns
	// one precomputed contiguous share (or, for multi-block layer
	// queues, workers drain one shared layer counter). Deterministic
	// worker→work assignment, bit-identical to the pre-sched executors.
	PolicyStatic Policy = iota
	// PolicySteal carves the same work into smaller weight-balanced
	// chunks and lets idle workers steal from their neighbours'
	// segments. Output rows of distinct chunks are disjoint for every
	// tree-based method, so results stay bit-identical to static; only
	// the assignment of chunk to worker becomes dynamic.
	PolicySteal
	// PolicyAdaptive starts static and promotes to stealing when the
	// metrics-measured worker imbalance stays above the controller's
	// threshold for its patience window. Promotion is a one-way ratchet
	// (see Controller), so a run never thrashes between layouts.
	PolicyAdaptive
)

// Resolved scheduler names as they appear in metrics.Snapshot.Sched
// and the imbalance experiment's "resolved" column. The adaptive policy reports which layout it is
// currently running; the promotion happens on the hot path, so both
// strings are preallocated constants.
const (
	StaticName         = "static"
	StealName          = "steal"
	AdaptiveName       = "adaptive"
	AdaptiveStaticName = "adaptive:static"
	AdaptiveStealName  = "adaptive:steal"
)

// Valid reports whether p is one of the defined policies. Plans are
// validated at executor construction so a stray integer fails fast
// instead of silently scheduling statically.
func (p Policy) Valid() bool { return p <= PolicyAdaptive }

func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return StaticName
	case PolicySteal:
		return StealName
	case PolicyAdaptive:
		return AdaptiveName
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy maps the CLI spelling (mttkrp-bench -sched, facade) to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case StaticName:
		return PolicyStatic, nil
	case StealName:
		return PolicySteal, nil
	case AdaptiveName:
		return PolicyAdaptive, nil
	default:
		return PolicyStatic, fmt.Errorf("sched: unknown policy %q (want static, steal, or adaptive)", s)
	}
}
