// Package spblock is a Go implementation of the blocking optimisation
// techniques for sparse tensor computation of Choi, Liu, Smith and
// Simon (IPDPS 2018): the SPLATT-format sparse MTTKRP kernel, the
// multi-dimensional (MB) and rank (RankB) blocking optimisations with
// register blocking, the block-size selection heuristic, the CP-ALS
// decomposition built on top, and a distributed MTTKRP with the
// paper's 4D (rank-partitioned) processor grid.
//
// Quick start:
//
//	x, _ := spblock.LoadTNS("data.tns")
//	plan, _, _ := spblock.Autotune(x, 64, spblock.MethodMBRankB, spblock.AutotuneOptions{})
//	me, _ := spblock.NewMultiExecutor(x, plan)
//	b := spblock.NewMatrix(x.Dims[1], 64) // fill with your factors
//	c := spblock.NewMatrix(x.Dims[2], 64)
//	out := spblock.NewMatrix(x.Dims[0], 64)
//	_ = me.Run(0, [3]*spblock.Matrix{nil, b, c}, out) // out = X(1) · (B ⊙ C)
//
// The facade re-exports the library's primary types; the analysis
// tooling (roofline model, cache simulator, pressure point analysis,
// experiment harness) lives in the internal packages and is exposed
// through the cmd/spblock-exp command.
package spblock

import (
	"io"

	"spblock/internal/core"
	"spblock/internal/cpapr"
	"spblock/internal/cpd"
	"spblock/internal/dist"
	"spblock/internal/engine"
	"spblock/internal/gen"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/sched"
	"spblock/internal/server"
	"spblock/internal/tensor"
)

// Core data types.
type (
	// Tensor is a third-order sparse tensor in coordinate form.
	Tensor = tensor.COO
	// Dims holds the three mode lengths.
	Dims = tensor.Dims
	// Stats summarises a tensor's shape (Table II vocabulary).
	Stats = tensor.Stats
	// Matrix is a dense row-major factor matrix.
	Matrix = la.Matrix

	// Plan selects and parameterises an MTTKRP kernel.
	Plan = core.Plan
	// Method names one of the kernel families.
	Method = core.Method
	// KernelVariant identifies the width-specialized rank-strip kernel
	// an executor resolved for its plan (MultiExecutor.Kernel,
	// MultiExecutorN.Kernel, ExecutorN.Kernel).
	KernelVariant = kernel.Variant
	// KernelMetrics is the always-on, allocation-free instrumentation
	// collector every executor carries; reach it via
	// MultiExecutor.Metrics, MultiExecutorN.Metrics or
	// ExecutorN.Metrics.
	KernelMetrics = metrics.Collector
	// KernelSnapshot is a point-in-time copy of a collector's counters
	// with the derived report quantities (ns/run, load imbalance,
	// achieved GB/s against the Equation 1 traffic estimate).
	KernelSnapshot = metrics.Snapshot
	// PhaseTimes buckets a decomposition's wall time by phase (MTTKRP vs
	// solve vs fit); CPALS, CPALSN and DistCPALS results carry one.
	PhaseTimes = metrics.PhaseTimes
	// MultiExecutor serves MTTKRP for several modes of one tensor
	// under a Plan, building each mode's executor exactly once.
	MultiExecutor = engine.MultiModeExecutor
	// BlockedTensor is the multi-dimensionally blocked representation:
	// one CSF tree per non-empty grid block.
	BlockedTensor = nmode.BlockedTensor
	// SchedPolicy selects the work-distribution policy for a plan's
	// parallel workers (Plan.Sched, OptionsN.Sched): static shares,
	// chunked work stealing, or the adaptive controller that promotes
	// static to stealing when the measured imbalance holds above its
	// threshold. See internal/sched.
	SchedPolicy = sched.Policy
	// AutotuneOptions configures the Sec. V-C block-size heuristic.
	AutotuneOptions = core.AutotuneOptions
	// Trial is one measured autotuning candidate.
	Trial = core.Trial

	// CPOptions configures a CP-ALS decomposition.
	CPOptions = cpd.Options
	// CPResult is a fitted Kruskal tensor with one factor per mode.
	CPResult = cpd.Result
	// APROptions configures a Poisson (KL) nonnegative decomposition.
	APROptions = cpapr.Options
	// APRResult is a fitted nonnegative Kruskal tensor.
	APRResult = cpapr.Result

	// DistConfig configures a distributed MTTKRP execution.
	DistConfig = dist.Config
	// DistResult reports a distributed execution.
	DistResult = dist.Result
	// DistEngine owns a reusable distributed MTTKRP setup.
	DistEngine = dist.Engine
	// DistCPOptions configures a distributed CP-ALS decomposition.
	DistCPOptions = dist.CPOptions
	// DistCPResult reports a distributed decomposition.
	DistCPResult = dist.CPResult
	// CostModel prices communication in the distributed runtime.
	CostModel = mpi.CostModel
	// FaultPlan is a seeded, deterministic fault schedule for the
	// distributed runtime (set DistConfig.Faults to arm it).
	FaultPlan = mpi.FaultPlan
	// CommStats carries the fault-tolerance telemetry of a distributed
	// decomposition (DistCPResult.Comm).
	CommStats = metrics.CommStats

	// DatasetSpec describes a Table II data set generator.
	DatasetSpec = gen.DatasetSpec

	// TensorN is an order-N sparse tensor in coordinate form.
	TensorN = nmode.Tensor
	// CSFN is the order-N compressed-sparse-fiber tree.
	CSFN = nmode.CSF
	// OptionsN configures the order-N MTTKRP (rank strips, workers, MB
	// grid).
	OptionsN = nmode.Options
	// ExecutorN owns preprocessed structures and a pooled workspace for
	// repeated MTTKRP products over one mode of an order-N tensor.
	ExecutorN = nmode.Executor
	// MultiExecutorN is the order-N MultiExecutor: one cached
	// mode-rooted N-mode executor per mode of an arbitrary-order
	// tensor, third-order inputs included.
	MultiExecutorN = engine.NEngine
	// CPNOptions configures an order-N CP-ALS decomposition.
	CPNOptions = cpd.NOptions
	// CPNResult is CPResult: every CP-ALS entry point returns the same
	// fitted Kruskal tensor.
	CPNResult = cpd.Result
)

// Kernel methods.
const (
	// MethodCOO is the coordinate-format reference kernel.
	MethodCOO = core.MethodCOO
	// MethodSPLATT is the baseline SPLATT kernel (Algorithm 1).
	MethodSPLATT = core.MethodSPLATT
	// MethodMB applies multi-dimensional blocking.
	MethodMB = core.MethodMB
	// MethodRankB applies rank blocking with register blocking
	// (Algorithm 2).
	MethodRankB = core.MethodRankB
	// MethodMBRankB combines both blockings.
	MethodMBRankB = core.MethodMBRankB
)

// Scheduling policies (Plan.Sched / OptionsN.Sched).
const (
	// SchedStatic is the zero value: one contiguous weight-balanced
	// share per worker, computed once at executor build — the paper's
	// implicit scheduling model, and bit-identical to it.
	SchedStatic = sched.PolicyStatic
	// SchedSteal carves the same work into many weight-balanced chunks
	// and lets idle workers steal from loaded ones.
	SchedSteal = sched.PolicySteal
	// SchedAdaptive starts static and promotes to stealing when the
	// measured worker imbalance stays above the controller threshold.
	SchedAdaptive = sched.PolicyAdaptive
)

// ParseSchedPolicy maps the CLI spelling ("static", "steal",
// "adaptive") to a SchedPolicy, as mttkrp-bench -sched does.
func ParseSchedPolicy(s string) (SchedPolicy, error) { return sched.ParsePolicy(s) }

// ParseMethod maps the CLI spelling of a kernel method ("coo",
// "splatt", "mb", "rankb", "mbrankb" or "mb+rankb", any case) to a
// Method, as cpd -method does.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseGrid parses an MB grid spelled QxRxS, as cpd -grid does. It
// rejects other entry counts, trailing input and entries below 1.
func ParseGrid(s string) ([3]int, error) { return core.ParseGrid(s) }

// RegisterBlockWidth is the default register-blocking width (16
// float64 lanes); the kernel registry also carries wider and narrower
// specializations — see KernelWidths.
const RegisterBlockWidth = core.RegisterBlockWidth

// KernelWidths lists the rank-strip widths with registered
// register-block kernel specializations, ascending. Plans whose strip
// width matches one of these run fully unrolled; other widths are
// served by the widest registered kernel that fits plus a scalar tail.
func KernelWidths() []int { return kernel.Widths() }

// PlanKernel predicts the rank-strip kernel variant an executor for
// plan resolves at the given rank (the zero variant for methods that
// never register-block). Executors report the variant they actually
// resolved via MultiExecutor.Kernel after the first Run.
func PlanKernel(plan Plan, rank int) KernelVariant { return core.PlanKernel(plan, rank) }

// NewTensor allocates an empty tensor with the given mode lengths.
func NewTensor(dims Dims, capacity int) *Tensor { return tensor.NewCOO(dims, capacity) }

// NewMatrix allocates a zeroed rows × cols factor matrix.
func NewMatrix(rows, cols int) *Matrix { return la.NewMatrix(rows, cols) }

// LoadTNS reads a FROSTT-style text tensor from a file.
func LoadTNS(path string) (*Tensor, error) { return tensor.LoadTNSFile(path) }

// SaveTNS writes a tensor to a file in FROSTT text form.
func SaveTNS(path string, t *Tensor) error { return tensor.SaveTNSFile(path, t) }

// ReadTNS parses a FROSTT-style text tensor from a reader.
func ReadTNS(r io.Reader) (*Tensor, error) { return tensor.ReadTNS(r) }

// WriteTNS writes a tensor in FROSTT text form.
func WriteTNS(w io.Writer, t *Tensor) error { return tensor.WriteTNS(w, t) }

// BuildCSF converts a tensor to the SPLATT storage format (Figure 1b of
// the paper): the CSF tree with mode order (0, 2, 1).
func BuildCSF(t *Tensor) (*CSFN, error) { return tensor.BuildCSF(t) }

// ComputeStats gathers shape statistics for a tensor.
func ComputeStats(t *Tensor) Stats { return tensor.ComputeStats(t) }

// NewMultiExecutor preprocesses t once per requested mode (default:
// all three) so one setup serves every mode product of a decomposition
// loop — the same amortisation CPALS and DistCPALS use internally.
// Repeated Run calls reuse each mode's pooled workspace and are
// allocation-free in steady state:
//
//	me, _ := spblock.NewMultiExecutor(x, plan)
//	factors := [3]*spblock.Matrix{a, b, c}
//	_ = me.Run(1, factors, out) // out = X₍₂₎ · (A ⊙ C)
//
// Pass mode 0 alone when only the mode-1 product is needed.
func NewMultiExecutor(t *Tensor, plan Plan, modes ...int) (*MultiExecutor, error) {
	return engine.NewMultiModeExecutor(t, plan, modes...)
}

// MTTKRP computes out = X₍₁₎ · (B ⊙ C) once with the given plan.
// Repeated products over the same tensor should build a
// NewMultiExecutor instead.
func MTTKRP(t *Tensor, b, c, out *Matrix, plan Plan) error {
	me, err := engine.NewMultiModeExecutor(t, plan, 0)
	if err != nil {
		return err
	}
	return me.Run(0, [3]*la.Matrix{nil, b, c}, out)
}

// BuildBlocked reorganises t into the grid blocks of MB blocking.
func BuildBlocked(t *Tensor, grid [3]int) (*BlockedTensor, error) {
	return tensor.BuildBlocked(t, grid)
}

// Autotune runs the Sec. V-C heuristic and returns a tuned plan.
func Autotune(t *Tensor, rank int, method Method, opts AutotuneOptions) (Plan, []Trial, error) {
	return core.Autotune(t, rank, method, opts)
}

// CPALS decomposes t into a rank-R Kruskal tensor with alternating
// least squares, using the plan's MTTKRP kernel for all three modes.
func CPALS(t *Tensor, opts CPOptions) (*CPResult, error) { return cpd.CPALS(t, opts) }

// CPAPR fits a nonnegative rank-R model to a count tensor by
// minimising the KL divergence (Poisson likelihood) with multiplicative
// updates — the model family the paper's Poisson data sets come from.
func CPAPR(t *Tensor, opts APROptions) (*APRResult, error) { return cpapr.Decompose(t, opts) }

// DistMTTKRP runs the distributed mode-1 MTTKRP (medium-grained 3D, or
// the paper's 4D when cfg.RankParts > 1) on the in-process MPI runtime.
func DistMTTKRP(t *Tensor, b, c *Matrix, cfg DistConfig) (*DistResult, error) {
	return dist.MTTKRP(t, b, c, cfg)
}

// NewDistEngine partitions t once for repeated distributed MTTKRP runs
// at the given rank.
func NewDistEngine(t *Tensor, rank int, cfg DistConfig) (*DistEngine, error) {
	return dist.NewEngine(t, rank, cfg)
}

// DistCPALS runs a full CP-ALS decomposition with every MTTKRP executed
// on the distributed runtime.
func DistCPALS(t *Tensor, cfg DistConfig, opts DistCPOptions) (*DistCPResult, error) {
	return dist.CPALS(t, cfg, opts)
}

// DefaultCluster is the distributed runtime's default network model.
func DefaultCluster() CostModel { return mpi.DefaultCluster() }

// NewFaultPlan returns an unarmed fault plan with the default
// reliability knobs; set its probability / rank fields to inject
// faults under the distributed collectives.
func NewFaultPlan(seed int64) *FaultPlan { return mpi.NewFaultPlan(seed) }

// NewTensorN allocates an empty order-N tensor.
func NewTensorN(dims []int, capacity int) *TensorN { return nmode.NewTensor(dims, capacity) }

// LoadTNSN reads an order-N FROSTT text tensor from a file.
func LoadTNSN(path string) (*TensorN, error) { return nmode.LoadTNSFile(path) }

// SaveTNSN writes an order-N tensor to a file in FROSTT text form.
func SaveTNSN(path string, t *TensorN) error { return nmode.SaveTNSFile(path, t) }

// BuildCSFN converts an order-N tensor to the CSF tree; modeOrder nil
// puts mode 0 at the root with the remaining modes short-to-long.
func BuildCSFN(t *TensorN, modeOrder []int) (*CSFN, error) { return nmode.Build(t, modeOrder) }

// MTTKRPN computes the order-N MTTKRP for the CSF tree's root mode,
// one shot over an already-built tree. For repeated products prefer
// NewExecutorN / NewMultiExecutorN, whose pooled workspaces make
// steady-state calls allocation-free.
func MTTKRPN(c *CSFN, factors []*Matrix, out *Matrix, opts OptionsN) error {
	return nmode.MTTKRP(c, factors, out, opts)
}

// NewExecutorN preprocesses one mode of an order-N tensor (CSF build,
// optional MB blocking per opts.Grid) for repeated MTTKRP products.
func NewExecutorN(t *TensorN, mode int, opts OptionsN) (*ExecutorN, error) {
	return nmode.NewExecutor(t, mode, opts)
}

// NewMultiExecutorN builds executors for the requested modes (default:
// all) of an order-N tensor — the arbitrary-order counterpart of
// NewMultiExecutor, which runs on the same pooled N-mode executors. At
// order 3 the default options compute NewMultiExecutor's RankB
// products bit for bit, and SPLATT's too (Algorithm 1's accumulator
// array performs the same arithmetic as the register walk).
func NewMultiExecutorN(t *TensorN, opts OptionsN, modes ...int) (*MultiExecutorN, error) {
	return engine.NewNEngine(t, opts, modes...)
}

// CPALSN decomposes an order-N tensor with alternating least squares
// on the unified engine; the sweep loop is shared with CPALS.
func CPALSN(t *TensorN, opts CPNOptions) (*CPNResult, error) { return cpd.CPALSN(t, opts) }

// Datasets returns the Table II data-set registry names.
func Datasets() []string { return gen.Names() }

// LookupDataset fetches a Table II data-set spec by name.
func LookupDataset(name string) (DatasetSpec, error) { return gen.Lookup(name) }

// Fingerprint returns the content hash identifying t up to nonzero
// storage order — the executor-cache key of the spblockd service (see
// internal/server): two uploads of the same logical tensor share one
// cached executor stack.
func Fingerprint(t *Tensor) string { return server.Fingerprint(t) }

// CPALSEngine decomposes t through a caller-supplied multi-mode
// engine, reusing its preprocessed per-mode executors instead of
// building fresh ones — the serving-cache path of spblockd.
func CPALSEngine(t *Tensor, eng *MultiExecutor, opts CPOptions) (*CPResult, error) {
	return cpd.CPALSEngine(t, eng, opts)
}
