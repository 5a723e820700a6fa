package core_test

import (
	"math/rand"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/nmode"
	"spblock/internal/sched"
)

// schedTestTensors returns the equivalence corpus: a mostly-uniform
// Poisson tensor and a clustered tensor whose dense sub-boxes skew the
// per-slice nonzero counts — the case work stealing exists for.
func schedTestTensors(t *testing.T) map[string]*nmode.Tensor {
	t.Helper()
	pois, err := gen.PoissonN(gen.PoissonNParams{Dims: []int{40, 30, 25}, Events: 6000}, 11)
	if err != nil {
		t.Fatal(err)
	}
	clus, err := gen.ClusteredN(gen.ClusteredNParams{
		Dims: []int{40, 30, 25}, NNZ: 6000, Clusters: 3, ClusterFrac: 0.9,
	}, 12)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*nmode.Tensor{"poisson": pois, "clustered": clus}
}

func bitIdentical(a, b *la.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// TestSchedulerEquivalence is the cross-scheduler matrix: for every
// tree-based method, the stealing and adaptive schedulers must produce
// outputs bit-identical to the static scheduler. This is not a
// tolerance check — distinct slices/layers own disjoint output rows
// and each unit's computation is self-contained, so reassigning a
// chunk to a different worker must not move a single bit. Run under
// -race in CI, this also exercises the steal claim protocol against
// the kernel bodies.
func TestSchedulerEquivalence(t *testing.T) {
	const rank = 19 // deliberately not a multiple of any kernel width
	methods := []core.Plan{
		{Method: core.MethodSPLATT},
		{Method: core.MethodRankB, RankBlockCols: 8},
		{Method: core.MethodMB, Grid: [3]int{6, 2, 2}},
		{Method: core.MethodMBRankB, Grid: [3]int{6, 2, 2}, RankBlockCols: 8},
	}
	for name, x := range schedTestTensors(t) {
		rng := rand.New(rand.NewSource(99))
		b := core.RandMatrix(rng, x.Dims[1], rank)
		c := core.RandMatrix(rng, x.Dims[2], rank)
		for _, base := range methods {
			base.Workers = 4
			ref := la.NewMatrix(x.Dims[0], rank)
			refExec, err := core.NewEngine(x, base, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := refExec.Run(0, []*la.Matrix{nil, b, c}, ref); err != nil {
				t.Fatal(err)
			}
			for _, pol := range []sched.Policy{sched.PolicySteal, sched.PolicyAdaptive} {
				plan := base
				plan.Sched = pol
				e, err := core.NewEngine(x, plan, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := la.NewMatrix(x.Dims[0], rank)
				for run := 0; run < 4; run++ {
					if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
						t.Fatal(err)
					}
					if !bitIdentical(got, ref) {
						t.Fatalf("%s %v run %d: output differs from static", name, plan, run)
					}
				}
			}
		}
	}
}

// promote drives an adaptive executor through its real ratchet: a
// synthetic busy-time delta on worker 0 before each run makes every
// window observe an imbalance near the worker count, so the controller
// fires after its patience. run is one checked product.
func promote(t *testing.T, e *nmode.Engine, run func()) {
	t.Helper()
	for i := 0; i <= sched.DefaultPatience && schedOf(t, e) != sched.AdaptiveStealName; i++ {
		metricsOf(t, e).AddWorkerTime(0, 500*time.Millisecond)
		run()
	}
	if schedOf(t, e) != sched.AdaptiveStealName {
		t.Fatalf("ratchet never fired: sched = %q", schedOf(t, e))
	}
}

// schedOf is mode 0's resolved scheduler name. Its pool flips to the
// stealing layout exactly when the name becomes a stealing one.
func schedOf(t *testing.T, e *nmode.Engine) string {
	t.Helper()
	s, err := e.Sched(0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// metricsOf is mode 0's metrics collector.
func metricsOf(t *testing.T, e *nmode.Engine) *metrics.Collector {
	t.Helper()
	m, err := e.Metrics(0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAdaptivePromotionBitIdentical drives the adaptive executor
// through its actual promotion transition and checks every run after
// promotion is still bit-identical — the equivalence matrix above may
// never promote on a fast test tensor, so the transition itself is
// pinned here.
func TestAdaptivePromotionBitIdentical(t *testing.T) {
	x := schedTestTensors(t)["clustered"]
	const rank = 16
	rng := rand.New(rand.NewSource(5))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := mttkrp(x, b, c, ref, core.Plan{Method: core.MethodSPLATT, Workers: 1}); err != nil {
		t.Fatal(err)
	}

	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4, Sched: sched.PolicyAdaptive}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if schedOf(t, e) != sched.AdaptiveStaticName {
		t.Fatalf("pre-promotion sched = %q", schedOf(t, e))
	}
	got := la.NewMatrix(x.Dims[0], rank)
	if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, ref) {
		t.Fatal("pre-promotion output differs")
	}

	promote(t, e, func() {
		if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, ref) {
			t.Fatal("output differs on the way to promotion")
		}
	})
	for run := 0; run < 3; run++ {
		if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, ref) {
			t.Fatalf("post-promotion run %d differs", run)
		}
	}
	if schedOf(t, e) != sched.AdaptiveStealName {
		t.Fatalf("post-promotion sched = %q", schedOf(t, e))
	}
}

// TestAdaptiveRatchetSurvivesSetWorkers is the regression test for the
// stale-baseline bug: a mid-life SetWorkers re-sizes the per-worker
// metrics buckets, and before the fix the adaptive controller's window
// baseline kept its old length — WindowImbalance then reported 1
// ("balanced") on every subsequent run and the static→stealing ratchet
// could never fire again. The pool now re-sizes the baseline alongside
// the buckets, so a sustained skew observed *after* the worker-count
// change must still promote.
func TestAdaptiveRatchetSurvivesSetWorkers(t *testing.T) {
	x := schedTestTensors(t)["clustered"]
	const rank = 16
	rng := rand.New(rand.NewSource(21))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := mttkrp(x, b, c, ref, core.Plan{Method: core.MethodSPLATT, Workers: 1}); err != nil {
		t.Fatal(err)
	}

	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4, Sched: sched.PolicyAdaptive}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(x.Dims[0], rank)
	if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil { // sizes buckets and baseline at 4
		t.Fatal(err)
	}
	if err := e.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	if schedOf(t, e) != sched.AdaptiveStaticName {
		t.Fatalf("post-resize sched = %q, want %q", schedOf(t, e), sched.AdaptiveStaticName)
	}
	// Drive the ratchet with synthetic skew: worker 0's bucket gets a
	// large busy-time delta before each run, so every post-resize window
	// observes an imbalance near the new worker count. With the default
	// thresholds (promote above 1.25 sustained for 3 windows) the fourth
	// run must be promoted; a stale 4-long baseline against the resized
	// buckets would observe 1 forever and never promote.
	for run := 0; run < 8 && schedOf(t, e) != sched.AdaptiveStealName; run++ {
		if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, ref) {
			t.Fatalf("post-resize run %d: output differs", run)
		}
		metricsOf(t, e).AddWorkerTime(0, 500*time.Millisecond)
	}
	if schedOf(t, e) != sched.AdaptiveStealName {
		t.Fatalf("ratchet never fired after SetWorkers: sched = %q", schedOf(t, e))
	}
	// And the promoted, resized executor still computes the same bits.
	if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, ref) {
		t.Fatal("post-promotion output differs")
	}
}

// TestSetWorkersKeepsPromotion: an already-promoted adaptive executor
// stays on the stealing layout across a resize — demoting it would
// discard the controller's ratchet state.
func TestSetWorkersKeepsPromotion(t *testing.T) {
	x := schedTestTensors(t)["clustered"]
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4, Sched: sched.PolicyAdaptive}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const rank = 8
	rng := rand.New(rand.NewSource(22))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	out := la.NewMatrix(x.Dims[0], rank)
	if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 8 && schedOf(t, e) != sched.AdaptiveStealName; run++ {
		metricsOf(t, e).AddWorkerTime(0, 500*time.Millisecond)
		if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
			t.Fatal(err)
		}
	}
	if schedOf(t, e) != sched.AdaptiveStealName {
		t.Fatalf("ratchet never fired: sched = %q", schedOf(t, e))
	}
	if err := e.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	if schedOf(t, e) != sched.AdaptiveStealName {
		t.Fatalf("promotion lost across SetWorkers: sched = %q", schedOf(t, e))
	}
	if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
		t.Fatal(err)
	}
	if metricsOf(t, e).Workers() != 2 {
		t.Fatalf("metrics buckets = %d, want 2", metricsOf(t, e).Workers())
	}
}

// TestSetWorkersValidatesAndResizes: negative counts are rejected, and
// a resize rebuilds the runner set and metrics buckets.
func TestSetWorkersValidatesAndResizes(t *testing.T) {
	x := schedTestTensors(t)["poisson"]
	e, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Workers: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetWorkers(-1); err == nil {
		t.Fatal("SetWorkers(-1) accepted")
	}
	const rank = 8
	rng := rand.New(rand.NewSource(23))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := mttkrp(x, b, c, ref, core.Plan{Method: core.MethodSPLATT, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	out := la.NewMatrix(x.Dims[0], rank)
	for _, w := range []int{2, 1, 3} {
		if err := e.SetWorkers(w); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(0, []*la.Matrix{nil, b, c}, out); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(out, ref) {
			t.Fatalf("workers=%d: output differs", w)
		}
	}
}

// TestCOONeverSteals: COO's privatised reduction is order-sensitive,
// so even an explicit steal/adaptive plan must resolve to the static
// layout (and stay bit-identical to the static plan's output).
func TestCOONeverSteals(t *testing.T) {
	x := schedTestTensors(t)["clustered"]
	const rank = 8
	rng := rand.New(rand.NewSource(6))
	b := core.RandMatrix(rng, x.Dims[1], rank)
	c := core.RandMatrix(rng, x.Dims[2], rank)
	ref := la.NewMatrix(x.Dims[0], rank)
	if err := mttkrp(x, b, c, ref, core.Plan{Method: core.MethodCOO, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sched.Policy{sched.PolicySteal, sched.PolicyAdaptive} {
		e, err := core.NewEngine(x, core.Plan{Method: core.MethodCOO, Workers: 4, Sched: pol}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if schedOf(t, e) != sched.StaticName {
			t.Fatalf("%v: COO resolved sched = %q, want static", pol, schedOf(t, e))
		}
		got := la.NewMatrix(x.Dims[0], rank)
		if err := e.Run(0, []*la.Matrix{nil, b, c}, got); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, ref) {
			t.Fatalf("%v: COO output differs from static plan", pol)
		}
	}
}

// TestInvalidSchedRejected: an out-of-range policy is a caller bug.
func TestInvalidSchedRejected(t *testing.T) {
	x := nmode.NewTensor([]int{4, 4, 4}, 0)
	x.Append([]nmode.Index{1, 1, 1}, 1)
	if _, err := core.NewEngine(x, core.Plan{Method: core.MethodSPLATT, Sched: sched.Policy(9)}); err == nil {
		t.Fatal("NewEngine accepted an unknown sched policy")
	}
}

// TestPlanStringSchedSuffix: spblockd's cpals reply spells the plan
// string, so static plans must render exactly as before and non-static
// plans must be distinguishable.
func TestPlanStringSchedSuffix(t *testing.T) {
	p := core.Plan{Method: core.MethodSPLATT}
	if got := p.String(); got != "SPLATT" {
		t.Fatalf("static plan string = %q, want unchanged %q", got, "SPLATT")
	}
	p.Sched = sched.PolicySteal
	if got := p.String(); got != "SPLATT sched=steal" {
		t.Fatalf("steal plan string = %q", got)
	}
	p.Sched = sched.PolicyAdaptive
	if got := p.String(); got != "SPLATT sched=adaptive" {
		t.Fatalf("adaptive plan string = %q", got)
	}
}
