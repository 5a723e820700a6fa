package nmode

import (
	"math/rand"
	"testing"
	"time"

	"spblock/internal/la"
	"spblock/internal/sched"
)

// TestAdaptiveRatchetSurvivesSetWorkersN is the N-mode half of the
// stale-baseline regression test (see core's
// TestAdaptiveRatchetSurvivesSetWorkers): after a mid-life SetWorkers
// re-sizes the worker buckets, the pool must re-size the adaptive
// window baseline too, or WindowImbalance observes 1 forever
// and the static→stealing ratchet silently dies.
func TestAdaptiveRatchetSurvivesSetWorkersN(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{24, 12, 10, 8}
	x := randTensorN(rng, dims, 2500)
	const rank = 9
	factors := make([]*la.Matrix, len(dims))
	for m := 1; m < len(dims); m++ {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	want := la.NewMatrix(dims[0], rank)
	eS, err := NewExecutor(x, 0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eS.Run(factors, want); err != nil {
		t.Fatal(err)
	}

	e, err := NewExecutor(x, 0, Options{Workers: 4, Sched: sched.PolicyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(dims[0], rank)
	if err := e.Run(factors, got); err != nil { // sizes buckets and baseline at 4
		t.Fatal(err)
	}
	if err := e.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	if e.Sched() != sched.AdaptiveStaticName {
		t.Fatalf("post-resize sched = %q, want %q", e.Sched(), sched.AdaptiveStaticName)
	}
	for run := 0; run < 8 && e.Sched() != sched.AdaptiveStealName; run++ {
		if err := e.Run(factors, got); err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("post-resize run %d differs at %d", run, i)
			}
		}
		e.met.AddWorkerTime(0, 500*time.Millisecond)
	}
	if e.Sched() != sched.AdaptiveStealName {
		t.Fatalf("ratchet never fired after SetWorkers: sched = %q", e.Sched())
	}
	if err := e.Run(factors, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("post-promotion output differs at %d", i)
		}
	}
}

// TestAdaptivePromotionBitIdenticalN pins the promotion transition
// itself on the N-mode executor: an adaptive executor starts on the
// static layout, and after its controller promotes it to stealing
// (driven by synthetic worker skew) subsequent runs remain
// bit-identical — for both the unblocked root-range and blocked layer
// work units.
func TestAdaptivePromotionBitIdenticalN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{16, 12, 10, 8}
	x := randTensorN(rng, dims, 2500)
	const rank = 17
	factors := make([]*la.Matrix, len(dims))
	for m := 1; m < len(dims); m++ {
		factors[m] = randMatrix(rng, dims[m], rank)
	}
	for _, opts := range []Options{
		{Workers: 4, Sched: sched.PolicyAdaptive},
		{Workers: 4, Grid: []int{2, 2, 1, 2}, Sched: sched.PolicyAdaptive},
	} {
		static := opts
		static.Sched = sched.PolicyStatic
		eS, err := NewExecutor(x, 0, static)
		if err != nil {
			t.Fatal(err)
		}
		want := la.NewMatrix(dims[0], rank)
		if err := eS.Run(factors, want); err != nil {
			t.Fatal(err)
		}
		e, err := NewExecutor(x, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Sched(); got != sched.AdaptiveStaticName {
			t.Fatalf("%+v: pre-promotion sched = %q, want %q", opts, got, sched.AdaptiveStaticName)
		}
		got := la.NewMatrix(dims[0], rank)
		if err := e.Run(factors, got); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= sched.DefaultPatience && e.Sched() != sched.AdaptiveStealName; i++ {
			e.met.AddWorkerTime(0, 500*time.Millisecond)
			if err := e.Run(factors, got); err != nil {
				t.Fatal(err)
			}
		}
		if !e.ws.pool.Stealing() {
			t.Fatalf("%+v: ratchet never fired: sched = %q", opts, e.Sched())
		}
		for run := 0; run < 3; run++ {
			if err := e.Run(factors, got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("%+v run %d: promoted output differs from static at %d: %v != %v",
						opts, run, i, v, want.Data[i])
				}
			}
		}
		if got := e.Sched(); got != sched.AdaptiveStealName {
			t.Fatalf("%+v: post-promotion sched = %q, want %q", opts, got, sched.AdaptiveStealName)
		}
	}
}
