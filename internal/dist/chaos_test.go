package dist

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
)

func chaosConfig(faults *mpi.FaultPlan) Config {
	return Config{
		Ranks:  4,
		Plan:   core.Plan{Method: core.MethodSPLATT, Workers: 1},
		Model:  mpi.Zero(),
		Faults: faults,
	}
}

func TestDistCPALSUnarmedPlanIdenticalTrajectory(t *testing.T) {
	// An unarmed fault plan must be invisible: the decomposition
	// trajectory is bit-identical to a run without the fault layer and
	// all telemetry stays zero.
	x := plantedTensor(8, []int{10, 9, 8}, 3)
	opts := CPOptions{Rank: 4, MaxIters: 6, Tol: 1e-14, Seed: 5}
	clean, err := CPALS(x, chaosConfig(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	armedless, err := CPALS(x, chaosConfig(mpi.NewFaultPlan(1)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Fits, armedless.Fits) {
		t.Fatalf("unarmed plan changed the trajectory:\n%v\nvs\n%v", clean.Fits, armedless.Fits)
	}
	if armedless.Comm.Faulted() {
		t.Fatalf("telemetry nonzero on a clean run: %+v", armedless.Comm)
	}
	if armedless.SurvivingRanks != 4 {
		t.Fatalf("surviving ranks = %d, want 4", armedless.SurvivingRanks)
	}
}

func TestDistCPALSCompletesUnderLinkFaults(t *testing.T) {
	// A lossy-but-recoverable network: drops, dups and corruption within
	// the retry budget. The decomposition must finish with the exact
	// fault-free trajectory (the protocol re-delivers identical bytes),
	// reporting the effort in CPResult.Comm.
	x := plantedTensor(8, []int{10, 9, 8}, 3)
	opts := CPOptions{Rank: 4, MaxIters: 4, Tol: 1e-14, Seed: 5}
	clean, err := CPALS(x, chaosConfig(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := mpi.NewFaultPlan(17)
	plan.DropProb = 0.01
	plan.DupProb = 0.05
	plan.CorruptProb = 0.01
	plan.DelayProb = 0.05
	plan.DelaySec = 1e-4
	plan.Timeout = 100 * time.Millisecond
	res, err := CPALS(x, chaosConfig(plan), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Fits, res.Fits) {
		t.Fatalf("link faults changed the trajectory:\n%v\nvs\n%v", clean.Fits, res.Fits)
	}
	if res.Comm.Retries == 0 && res.Comm.Timeouts == 0 {
		t.Fatalf("no reliability effort recorded: %+v", res.Comm)
	}
	if res.Comm.Crashes != 0 || res.SurvivingRanks != 4 {
		t.Fatalf("phantom crash: %+v surviving %d", res.Comm, res.SurvivingRanks)
	}
}

func TestDistCPALSDegradesAfterCrash(t *testing.T) {
	// Rank 3 dies a few operations into the first distributed MTTKRP.
	// The driver must re-partition over the three survivors and finish
	// the decomposition degraded — no panic, no hang, full telemetry —
	// and every goroutine the run started, the dead rank's and the
	// aborted sweep's included, must exit: runtime.NumGoroutine
	// settles back to its pre-run count.
	x := plantedTensor(8, []int{10, 9, 8}, 3)
	plan := mpi.NewFaultPlan(3)
	plan.CrashRank = 3
	plan.CrashAfterOps = 5
	plan.Timeout = 50 * time.Millisecond
	plan.MaxRetries = 2
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	var res *CPResult
	var err error
	go func() {
		defer close(done)
		res, err = CPALS(x, chaosConfig(plan), CPOptions{Rank: 4, MaxIters: 5, Tol: 1e-14, Seed: 5})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("crashed decomposition hung")
	}
	if err != nil {
		t.Fatalf("degradation failed: %v", err)
	}
	if res.SurvivingRanks != 3 {
		t.Fatalf("surviving ranks = %d, want 3", res.SurvivingRanks)
	}
	if res.Comm.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Comm.Crashes)
	}
	if res.Comm.SweepRetries == 0 {
		t.Fatal("crash recovery did not count a sweep retry")
	}
	if res.Comm.DegradedSweeps == 0 {
		t.Fatal("no degraded sweeps reported")
	}
	if res.Iters != 5 || res.Fit() <= 0.5 {
		t.Fatalf("degraded decomposition did not progress: iters=%d fit=%v", res.Iters, res.Fit())
	}
	// The crashed run must match the trajectory of a clean 3-rank run
	// from the restart point onward in spirit: at minimum, the fits are
	// monotone-ish and finite.
	for i, f := range res.Fits {
		if f != f || f < -1 || f > 1+1e-9 {
			t.Fatalf("fit %d out of range: %v", i, f)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the degraded run, %d before", n, before)
	}
}

func TestDistCPALSUnrecoverableFaultsError(t *testing.T) {
	// Total packet loss exhausts every retry and every sweep restart;
	// the decomposition must surface an error — never hang.
	x := plantedTensor(8, []int{8, 8, 8}, 2)
	plan := mpi.NewFaultPlan(9)
	plan.DropProb = 1.0
	plan.MaxRetries = 1
	plan.Timeout = 20 * time.Millisecond
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = CPALS(x, chaosConfig(plan), CPOptions{Rank: 2, MaxIters: 3, Seed: 1, MaxSweepRetries: 1})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("unrecoverable run hung")
	}
	if err == nil {
		t.Fatal("total loss did not surface as an error")
	}
	if !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("error does not carry ErrTimeout: %v", err)
	}
}

func TestRecoverSweepRepartitionsOnCrash(t *testing.T) {
	// Unit test of the degradation decision: a transient error retries
	// in place; a crash shrinks the world and rebuilds the engines.
	x := plantedTensor(8, []int{10, 9, 8}, 3)
	cfg := chaosConfig(mpi.NewFaultPlan(1))
	res := &CPResult{SurvivingRanks: cfg.Ranks}
	var pts [3]*nmode.Tensor
	var engines [3]*Engine
	for n := 0; n < 3; n++ {
		pt := x // orientation does not matter for this test
		pts[n] = pt
		eng, err := NewEngine(pt, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[n] = eng
	}
	k := &distKernel{dims: x.Dims[:], pts: pts, cfg: cfg, rank: 4,
		engines: engines, res: res, degradedAt: -1}

	if !k.RecoverSweep(2, 0, 0, fmt.Errorf("transient: %w", mpi.ErrTimeout)) {
		t.Fatal("transient failure not retryable")
	}
	if k.cfg.Ranks != 4 || k.degradedAt != -1 {
		t.Fatal("transient retry must not re-partition")
	}

	crashErr := &mpi.RankFailure{Rank: 2, Peer: -1, Collective: "Barrier", Err: mpi.ErrCrashed}
	if !k.RecoverSweep(3, 1, 0, crashErr) {
		t.Fatal("single crash not recoverable")
	}
	if k.cfg.Ranks != 3 {
		t.Fatalf("world not shrunk: %d ranks", k.cfg.Ranks)
	}
	if k.cfg.Faults.CrashRank != -1 {
		t.Fatal("crash fault still armed after re-partition")
	}
	if res.Comm.Crashes != 1 || k.degradedAt != 3 {
		t.Fatalf("telemetry wrong: crashes=%d degradedAt=%d", res.Comm.Crashes, k.degradedAt)
	}

	// Losing everyone is not recoverable.
	all := errors.Join(
		&mpi.RankFailure{Rank: 0, Peer: -1, Collective: "Barrier", Err: mpi.ErrCrashed},
		&mpi.RankFailure{Rank: 1, Peer: -1, Collective: "Barrier", Err: mpi.ErrCrashed},
		&mpi.RankFailure{Rank: 2, Peer: -1, Collective: "Barrier", Err: mpi.ErrCrashed},
	)
	if k.RecoverSweep(4, 0, 0, all) {
		t.Fatal("losing all remaining ranks reported recoverable")
	}
}
