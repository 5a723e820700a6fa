package nmode

import (
	"math/rand"
	"testing"
	"time"

	"spblock/internal/la"
)

// TestAdaptiveRatchetSurvivesSetWorkersN is the N-mode half of core's
// TestAdaptiveRatchetSurvivesSetWorkers: after a mid-life SetWorkers
// the pool's runners and metrics buckets follow the new count, and
// runs under sustained synthetic skew on worker 0 stay bit-identical
// to one worker.
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

	e, err := NewExecutor(x, 0, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := la.NewMatrix(dims[0], rank)
	if err := e.Run(factors, got); err != nil { // sizes the buckets at 4
		t.Fatal(err)
	}
	if err := e.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	if e.ws.pool.Workers() != 3 || e.met.Workers() != 3 {
		t.Fatalf("after SetWorkers(3): %d runners, %d metrics buckets", e.ws.pool.Workers(), e.met.Workers())
	}
	for run := 0; run < 8; run++ {
		e.met.AddWorkerTime(0, 500*time.Millisecond)
		if err := e.Run(factors, got); err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("post-resize run %d differs at %d", run, i)
			}
		}
	}
}
