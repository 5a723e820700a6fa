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
// The facade re-exports the library's primary types. The types it
// defines itself are kept for the spbench benchmark: Tensor and Dims,
// the order-3 view of TensorN whose functions convert to a TensorN
// sharing its storage; DatasetSpec, the generator registry entry with
// order-3 shapes; and MultiExecutor, a MultiExecutorN with an order-3
// Run. The analysis tooling (roofline model, cache simulator, pressure
// point analysis, experiment harness) lives in the internal packages
// and is exposed through the cmd/spblock-exp command.
package spblock

import (
	"errors"
	"fmt"
	"io"

	"spblock/internal/core"
	"spblock/internal/cpapr"
	"spblock/internal/cpd"
	"spblock/internal/dist"
	"spblock/internal/gen"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/server"
	"spblock/internal/tensor"
)

// Core data types.
type (
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
	// BlockedTensor is the multi-dimensionally blocked representation:
	// one CSF tree per non-empty grid block.
	BlockedTensor = nmode.BlockedTensor
	// AutotuneOptions configures the Sec. V-C block-size heuristic.
	AutotuneOptions = core.AutotuneOptions
	// Trial is one measured autotuning candidate.
	Trial = core.Trial

	// CPOptions configures a CP-ALS decomposition at any order; a
	// caller holding a Plan sets Kernel to plan.Options().
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
	MultiExecutorN = nmode.Engine
	// CPNOptions is CPOptions, under the name the spbench benchmark
	// uses; it is kept until the benchmark next changes.
	CPNOptions = cpd.Options
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

// Tensor is a third-order sparse tensor in coordinate form (Figure 1a):
// parallel slices of mode indices plus values, the order-3 view of a
// TensorN.
type Tensor struct {
	Dims Dims
	I    []int32
	J    []int32
	K    []int32
	Val  []float64
}

// Dims holds the three mode lengths.
type Dims [3]int

// Volume returns the product of the mode lengths as a float64 (the
// integer product overflows for paper-scale shapes).
func (d Dims) Volume() float64 { return float64(d[0]) * float64(d[1]) * float64(d[2]) }

func (d Dims) String() string { return tensor.FormatDims(d[:]) }

// NewTensor allocates an empty tensor with the given mode lengths.
func NewTensor(dims Dims, capacity int) *Tensor {
	return &Tensor{
		Dims: dims,
		I:    make([]int32, 0, capacity),
		J:    make([]int32, 0, capacity),
		K:    make([]int32, 0, capacity),
		Val:  make([]float64, 0, capacity),
	}
}

// nmode returns the order-N view of t, sharing its storage.
func (t *Tensor) nmode() *TensorN {
	return &TensorN{Dims: t.Dims[:], Idx: [][]int32{t.I, t.J, t.K}, Val: t.Val}
}

// order3 returns the order-3 view of x, sharing its storage. Input
// without data and without a dims comment (nmode.ErrNoData) yields an
// empty 1x1x1 tensor.
func order3(x *TensorN, err error) (*Tensor, error) {
	if errors.Is(err, nmode.ErrNoData) {
		return NewTensor(Dims{1, 1, 1}, 0), nil
	}
	if err != nil {
		return nil, err
	}
	if err := tensor.CheckOrder3(x); err != nil {
		return nil, err
	}
	return &Tensor{Dims: Dims(x.Dims), I: x.Idx[0], J: x.Idx[1], K: x.Idx[2], Val: x.Val}, nil
}

// NNZ returns the number of stored entries.
//
//spblock:hotpath
func (t *Tensor) NNZ() int { return len(t.Val) }

// Append adds a nonzero. It does not check bounds; call Validate before
// handing user-supplied data to kernels.
func (t *Tensor) Append(i, j, k int32, v float64) {
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.K = append(t.K, k)
	t.Val = append(t.Val, v)
}

// Validate checks positive dims, equal slice lengths and in-range
// coordinates.
func (t *Tensor) Validate() error { return t.nmode().Validate() }

// NormSquared returns Σ v².
func (t *Tensor) NormSquared() float64 { return t.nmode().NormSquared() }

// Dedup merges duplicate coordinates by summing their values in input
// order and leaves the tensor in fiber order (i, k, j). Returns the
// number of merged entries.
func (t *Tensor) Dedup() (int, error) {
	x := t.nmode()
	merged, err := tensor.Dedup(x)
	t.I, t.J, t.K, t.Val = x.Idx[0], x.Idx[1], x.Idx[2], x.Val
	return merged, err
}

// NewMatrix allocates a zeroed rows × cols factor matrix.
func NewMatrix(rows, cols int) *Matrix { return la.NewMatrix(rows, cols) }

// LoadTNS reads a third-order FROSTT-style text tensor from a file.
func LoadTNS(path string) (*Tensor, error) { return order3(nmode.LoadTNSFile(path)) }

// SaveTNS writes a tensor to a file in FROSTT text form.
func SaveTNS(path string, t *Tensor) error { return nmode.SaveTNSFile(path, t.nmode()) }

// ReadTNS parses a third-order FROSTT-style text tensor from a reader:
// one nonzero per line as "i j k value" with 1-based coordinates. Input
// without data and without a dims comment yields an empty 1x1x1
// tensor.
func ReadTNS(r io.Reader) (*Tensor, error) { return order3(nmode.ReadTNS(r)) }

// WriteTNS writes a tensor in FROSTT text form.
func WriteTNS(w io.Writer, t *Tensor) error { return nmode.WriteTNS(w, t.nmode()) }

// BuildCSF converts a tensor to the SPLATT storage format (Figure 1b of
// the paper): the CSF tree with mode order (0, 2, 1).
func BuildCSF(t *Tensor) (*CSFN, error) { return nmode.Build(t.nmode(), tensor.SPLATTModeOrder()) }

// ComputeStats gathers shape statistics for a tensor (zero Stats for
// one whose coordinate slices differ in length).
func ComputeStats(t *Tensor) Stats {
	s, _ := tensor.ComputeStats(t.nmode())
	return s
}

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
	eng, err := core.NewEngine(t.nmode(), plan, modes...)
	if err != nil {
		return nil, err
	}
	return &MultiExecutor{Engine: eng}, nil
}

// MultiExecutor is a MultiExecutorN built for a Plan, whose Run takes
// the factors as an array; it is kept until the spbench benchmark next
// changes. It must not Run one mode concurrently with itself; distinct
// modes may run from different goroutines.
type MultiExecutor struct {
	*nmode.Engine
	// ops holds each mode's operands during its Run, so Run passes the
	// engine a slice without allocating; it is cleared afterwards, so a
	// cached executor does not keep a finished job's matrices alive.
	ops [3][3]*la.Matrix
}

// Run computes out = MTTKRP over mode n; factors is indexed by mode
// (factors[n] is not read). out must be Dims()[n] rows.
//
//spblock:hotpath
func (m *MultiExecutor) Run(n int, factors [3]*Matrix, out *Matrix) error {
	if n < 0 || n > 2 {
		return fmt.Errorf("spblock: mode %d out of range [0,2]", n) //spblock:allow misuse error path, never taken by a decomposition sweep
	}
	ops := &m.ops[n]
	*ops = factors
	err := m.Engine.Run(n, ops[:], out)
	*ops = [3]*la.Matrix{}
	return err
}

// MTTKRP computes out = X₍₁₎ · (B ⊙ C) once with the given plan.
// Repeated products over the same tensor should build a
// NewMultiExecutor instead.
func MTTKRP(t *Tensor, b, c, out *Matrix, plan Plan) error {
	eng, err := core.NewEngine(t.nmode(), plan, 0)
	if err != nil {
		return err
	}
	return eng.Run(0, []*la.Matrix{nil, b, c}, out)
}

// BuildBlocked reorganises t into the grid blocks of MB blocking.
func BuildBlocked(t *Tensor, grid [3]int) (*BlockedTensor, error) {
	return nmode.BuildBlocked(t.nmode(), grid[:], tensor.SPLATTModeOrder())
}

// Autotune runs the Sec. V-C heuristic and returns a tuned plan.
func Autotune(t *Tensor, rank int, method Method, opts AutotuneOptions) (Plan, []Trial, error) {
	return core.Autotune(t.nmode(), rank, method, opts)
}

// CPALS decomposes t into a rank-R Kruskal tensor with alternating
// least squares, running opts.Kernel's MTTKRP for all three modes.
func CPALS(t *Tensor, opts CPOptions) (*CPResult, error) {
	return cpd.CPALS(t.nmode(), opts)
}

// CPAPR fits a nonnegative rank-R model to a count tensor by
// minimising the KL divergence (Poisson likelihood) with multiplicative
// updates — the model family the paper's Poisson data sets come from.
func CPAPR(t *Tensor, opts APROptions) (*APRResult, error) { return cpapr.Decompose(t.nmode(), opts) }

// DistMTTKRP runs the distributed mode-1 MTTKRP (medium-grained 3D, or
// the paper's 4D when cfg.RankParts > 1) on the in-process MPI runtime.
func DistMTTKRP(t *Tensor, b, c *Matrix, cfg DistConfig) (*DistResult, error) {
	return dist.MTTKRP(t.nmode(), b, c, cfg)
}

// NewDistEngine partitions t once for repeated distributed MTTKRP runs
// at the given rank.
func NewDistEngine(t *Tensor, rank int, cfg DistConfig) (*DistEngine, error) {
	return dist.NewEngine(t.nmode(), rank, cfg)
}

// DistCPALS runs a full CP-ALS decomposition with every MTTKRP executed
// on the distributed runtime.
func DistCPALS(t *Tensor, cfg DistConfig, opts DistCPOptions) (*DistCPResult, error) {
	return dist.CPALS(t.nmode(), cfg, opts)
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
	return nmode.NewEngine(t, opts, modes...)
}

// CPALSN decomposes an order-N tensor with alternating least squares;
// it is the order-N CPALS, kept for the spbench benchmark.
func CPALSN(t *TensorN, opts CPNOptions) (*CPNResult, error) { return cpd.CPALS(t, opts) }

// Datasets returns the Table II data-set registry names.
func Datasets() []string { return gen.Names() }

// DatasetSpec describes a Table II data set generator with its
// order-3 shapes.
type DatasetSpec struct {
	Name string
	// PaperDims and PaperNNZ are the shapes reported in Table II.
	PaperDims Dims
	PaperNNZ  int64
	// BenchDims and BenchNNZ are the scaled shapes the offline
	// benchmarks generate.
	BenchDims Dims
	BenchNNZ  int

	spec gen.DatasetSpec
}

// GenerateAt builds the data set at an arbitrary shape using the
// spec's generator knobs.
func (d DatasetSpec) GenerateAt(dims Dims, nnz int, seed int64) (*Tensor, error) {
	return order3(d.spec.GenerateAt(dims[:], nnz, seed))
}

// LookupDataset fetches a Table II data-set spec by name.
func LookupDataset(name string) (DatasetSpec, error) {
	s, err := gen.Lookup(name)
	if err != nil {
		return DatasetSpec{}, err
	}
	return DatasetSpec{Name: s.Name, PaperDims: Dims(s.PaperDims), PaperNNZ: s.PaperNNZ,
		BenchDims: Dims(s.BenchDims), BenchNNZ: s.BenchNNZ, spec: s}, nil
}

// Fingerprint returns the content hash identifying t up to nonzero
// storage order — the executor-cache key of the spblockd service (see
// internal/server): two uploads of the same logical tensor share one
// cached executor stack. A tensor whose coordinate slices differ in
// length, or whose coordinates span more than its longest mode and its
// nonzero count, has none (the empty string).
func Fingerprint(t *Tensor) string {
	fp, _ := server.Fingerprint(t.nmode())
	return fp
}

// CPALSEngine decomposes t through a caller-supplied multi-mode
// engine, reusing its preprocessed per-mode executors instead of
// building fresh ones — the serving-cache path of spblockd.
func CPALSEngine(t *Tensor, eng *MultiExecutor, opts CPOptions) (*CPResult, error) {
	if eng == nil {
		return cpd.CPALSEngine(t.nmode(), nil, opts)
	}
	return cpd.CPALSEngine(t.nmode(), eng.Engine, opts)
}
