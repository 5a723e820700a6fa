package dist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spblock/internal/core"
	"spblock/internal/la"
	"spblock/internal/mpi"
	"spblock/internal/tensor"
)

// TestSubCommColorsDisjoint enumerates every rank of tall and wide 3D/4D
// grids and checks the color spaces: two ranks share a color exactly
// when they belong in the same sub-communicator. The former
// g*1000-offset scheme merged the B and C communicators once an inner
// grid dimension reached 500; the grids here cross that line.
func TestSubCommColorsDisjoint(t *testing.T) {
	cases := []struct {
		name     string
		q, rr, s int
		tParts   int
	}{
		{"tall-3D", 1, 600, 1, 1},
		{"wide-3D", 600, 1, 1, 1},
		{"tall-4D", 1, 512, 1, 2},
		{"boxy-4D", 4, 500, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			innerP := tc.q * tc.rr * tc.s
			p := innerP * tc.tParts
			type coord struct{ g, x, y, z, inner int }
			coords := make([]coord, p)
			colors := make([][4]int, p)
			for r := 0; r < p; r++ {
				g := r / innerP
				inner := r % innerP
				x := inner / (tc.rr * tc.s)
				y := (inner / tc.s) % tc.rr
				z := inner % tc.s
				coords[r] = coord{g, x, y, z, inner}
				b, c, a, gg := subCommColors(g, x, y, z, inner, p, tc.tParts)
				colors[r] = [4]int{b, c, a, gg}
			}
			// Kinds must never collide across each other…
			seen := map[int]int{}
			for r := 0; r < p; r++ {
				for kind := 0; kind < 4; kind++ {
					if prev, ok := seen[colors[r][kind]]; ok && prev != kind {
						t.Fatalf("color %d used by kinds %d and %d", colors[r][kind], prev, kind)
					}
					seen[colors[r][kind]] = kind
				}
			}
			// …and within a kind, equal color must mean same communicator.
			for i := 0; i < p; i++ {
				for j := i + 1; j < p; j++ {
					ci, cj := coords[i], coords[j]
					wants := [4]bool{
						ci.g == cj.g && ci.y == cj.y,
						ci.g == cj.g && ci.z == cj.z,
						ci.g == cj.g && ci.x == cj.x,
						ci.inner == cj.inner,
					}
					for kind := 0; kind < 4; kind++ {
						if (colors[i][kind] == colors[j][kind]) != wants[kind] {
							t.Fatalf("kind %d: ranks %d/%d coords %+v/%+v: same-color=%v want %v",
								kind, i, j, ci, cj, colors[i][kind] == colors[j][kind], wants[kind])
						}
					}
				}
			}
		})
	}
}

// TestSubCommSplitTallGrid is the end-to-end regression for the color
// collision: on a 1×600×1 inner grid the old scheme fused the B
// communicator of y=500 with the C communicator (z+500 = 500), so the
// split produced wrongly-sized groups. The fixed colors must yield
// B groups of size 1 and C groups spanning all 600 ranks.
func TestSubCommSplitTallGrid(t *testing.T) {
	const q, rr, s, tParts = 1, 600, 1, 1
	const p = q * rr * s * tParts
	_, err := mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) error {
		inner := c.Rank() % (q * rr * s)
		g := c.Rank() / (q * rr * s)
		x := inner / (rr * s)
		y := (inner / s) % rr
		z := inner % s
		bColor, cColor, aColor, gColor := subCommColors(g, x, y, z, inner, p, tParts)
		bComm, err := c.Split(bColor, inner)
		if err != nil {
			return err
		}
		cComm, err := c.Split(cColor, inner)
		if err != nil {
			return err
		}
		aComm, err := c.Split(aColor, inner)
		if err != nil {
			return err
		}
		gComm, err := c.Split(gColor, g)
		if err != nil {
			return err
		}
		if bComm.Size() != 1 {
			return fmt.Errorf("rank %d: B group size %d, want 1", c.Rank(), bComm.Size())
		}
		if cComm.Size() != p {
			return fmt.Errorf("rank %d: C group size %d, want %d", c.Rank(), cComm.Size(), p)
		}
		if aComm.Size() != p {
			return fmt.Errorf("rank %d: A group size %d, want %d", c.Rank(), aComm.Size(), p)
		}
		if gComm.Size() != 1 {
			return fmt.Errorf("rank %d: G group size %d, want 1", c.Rank(), gComm.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// poisonedRunner is a blockRunner that always fails.
type poisonedRunner struct{}

func (poisonedRunner) Run([]*la.Matrix, *la.Matrix) error {
	return fmt.Errorf("injected executor failure")
}

func TestPoisonedExecutorSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randCOO(rng, tensor.Dims{16, 16, 16}, 400)
	rank := 8
	b := randMatrix(rng, 16, rank)
	c := randMatrix(rng, 16, rank)
	eng, err := NewEngine(x, rank, Config{
		Ranks: 4,
		Plan:  core.Plan{Method: core.MethodSPLATT, Workers: 1},
		Model: mpi.Zero(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range eng.execs {
		eng.execs[i] = poisonedRunner{}
	}
	res, err := eng.Run(b, c)
	if err == nil {
		t.Fatal("poisoned executor did not surface as an error")
	}
	if !strings.Contains(err.Error(), "block executor") {
		t.Fatalf("error does not identify the executor: %v", err)
	}
	if res == nil {
		t.Fatal("partial result missing on failure")
	}
}

func TestMTTKRPValidatesFactorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randCOO(rng, tensor.Dims{8, 8, 8}, 50)
	cfg := Config{Ranks: 2, Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}}
	cases := []struct {
		name    string
		bCols   int
		cCols   int
		wantSub string
	}{
		{"rank mismatch", 16, 8, "rank mismatch"},
		{"zero rank", 0, 0, "rank must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := randMatrix(rng, 8, tc.bCols)
			c := randMatrix(rng, 8, tc.cCols)
			_, err := MTTKRP(x, b, c, cfg)
			if err == nil {
				t.Fatal("bad factors accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestMTTKRPCorrectUnderLinkFaults(t *testing.T) {
	// The reliability protocol must make a lossy network look like a
	// perfect one: the distributed result stays bit-identical to the
	// clean run, with the loss visible only in the telemetry.
	rng := rand.New(rand.NewSource(23))
	x := randCOO(rng, tensor.Dims{24, 24, 24}, 800)
	rank := 16
	b := randMatrix(rng, 24, rank)
	c := randMatrix(rng, 24, rank)

	clean, err := MTTKRP(x, b, c, Config{Ranks: 4, Model: mpi.Zero(),
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}

	plan := mpi.NewFaultPlan(31)
	plan.DropProb = 0.05
	plan.DupProb = 0.1
	plan.CorruptProb = 0.05
	plan.Timeout = 100 * time.Millisecond
	faulted, err := MTTKRP(x, b, c, Config{Ranks: 4, Model: mpi.Zero(), Faults: plan,
		Plan: core.Plan{Method: core.MethodSPLATT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := faulted.Out.MaxAbsDiff(clean.Out); d != 0 {
		t.Fatalf("faulted network changed the result by %v", d)
	}
	if faulted.Stats.TotalRetries() == 0 {
		t.Fatal("no retries recorded; the plan did not bite")
	}
}
