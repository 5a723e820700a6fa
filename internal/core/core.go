// Package core names the paper's contribution: the SPLATT baseline
// (Algorithm 1), the two blocking optimisations of Sec. V
// (multi-dimensional blocking, and rank blocking with register
// blocking) and the Sec. V-C block-size heuristic.
//
// A Plan picks one of those kernels for a third-order tensor, and
// Plan.Options translates it for the nmode executors that run every
// mode's product (the three products are structurally identical —
// Sec. III-B); NewEngine builds them. The package also keeps the dense
// Reference oracle.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"spblock/internal/kernel"
	"spblock/internal/nmode"
)

// Method selects an MTTKRP kernel.
type Method int

const (
	// MethodCOO is the coordinate-format reference kernel (Sec. III-C1).
	MethodCOO Method = iota
	// MethodSPLATT is Algorithm 1, the baseline the paper optimises.
	MethodSPLATT
	// MethodMB applies multi-dimensional blocking (Sec. V-A).
	MethodMB
	// MethodRankB applies rank blocking with register blocking
	// (Sec. V-B, Algorithm 2).
	MethodRankB
	// MethodMBRankB combines both blockings (Figure 3b).
	MethodMBRankB
)

func (m Method) String() string {
	switch m {
	case MethodCOO:
		return "COO"
	case MethodSPLATT:
		return "SPLATT"
	case MethodMB:
		return "MB"
	case MethodRankB:
		return "RankB"
	case MethodMBRankB:
		return "MB+RankB"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a CLI spelling of a method to its Method,
// case-insensitively: "coo", "splatt", "mb", "rankb" and "mbrankb" or
// "mb+rankb". It accepts every Method's String.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "coo":
		return MethodCOO, nil
	case "splatt":
		return MethodSPLATT, nil
	case "mb":
		return MethodMB, nil
	case "rankb":
		return MethodRankB, nil
	case "mbrankb", "mb+rankb":
		return MethodMBRankB, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q", s)
	}
}

// ParseGrid parses an MB grid spelled QxRxS (the x in either case).
// It rejects any other number of entries, trailing input and entries
// below 1.
func ParseGrid(s string) ([3]int, error) {
	var grid [3]int
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != len(grid) {
		return grid, fmt.Errorf("core: grid %q: want QxRxS", s)
	}
	for m, part := range parts {
		g, err := strconv.Atoi(part)
		if err != nil || g < 1 {
			return grid, fmt.Errorf("core: grid %q: entry %q is not a positive integer", s, part)
		}
		grid[m] = g
	}
	return grid, nil
}

// RegisterBlockWidth is NRegB of Algorithm 2: the default number of
// columns processed with fully unrolled scalar accumulators. 16
// float64 lanes are two 64-byte cache lines, the paper's choice ("a
// multiple of the cache line size"). The actual width dispatched per
// executor comes from the internal/kernel registry (8/16/24/32-wide
// variants, resolved from the effective strip width).
const RegisterBlockWidth = kernel.DefaultWidth

// Plan describes how to execute MTTKRP on one tensor.
type Plan struct {
	Method Method
	// Grid is the MB block grid (blocks along mode-1, mode-2, mode-3).
	// {1,1,1} means unblocked. Only used by MethodMB and MethodMBRankB.
	Grid [3]int
	// RankBlockCols is BS_RankB of Algorithm 2, the number of columns
	// per rank strip. 0 means "whole rank" (no rank blocking). Only
	// used by MethodRankB and MethodMBRankB.
	RankBlockCols int
	// Workers is the parallelism degree; 0 means GOMAXPROCS. Negative
	// values are rejected when an executor is built.
	Workers int
}

func (p Plan) String() string {
	s := p.Method.String()
	if p.Method == MethodMB || p.Method == MethodMBRankB {
		s += fmt.Sprintf(" grid=%dx%dx%d", p.Grid[0], p.Grid[1], p.Grid[2])
	}
	if p.Method == MethodRankB || p.Method == MethodMBRankB {
		s += fmt.Sprintf(" bs=%d", p.RankBlockCols)
	}
	return s
}

// Options translates the plan into the options of the nmode executors
// that run it — the one place a Method meets its kernel. COO runs the
// coordinate kernel, SPLATT and MB Algorithm 1's accumulator walk, and
// RankB and MB+RankB the register-blocked walk with rank strips; only
// MB methods take the grid, and only RankB methods the strip width.
func (p Plan) Options() (nmode.Options, error) {
	o := nmode.Options{Workers: p.Workers}
	switch p.Method {
	case MethodCOO:
		o.Algorithm = nmode.AlgCOO
	case MethodSPLATT, MethodMB:
		o.Algorithm = nmode.AlgAccumulator
	case MethodRankB, MethodMBRankB:
		o.RankBlockCols = p.RankBlockCols
	default:
		return o, fmt.Errorf("core: unknown method %v", p.Method)
	}
	if p.Method == MethodMB || p.Method == MethodMBRankB {
		o.Grid = []int{p.Grid[0], p.Grid[1], p.Grid[2]}
	}
	return o, nil
}

// NewEngine builds the executors of the requested modes (default: all)
// of t under plan — the one place a plan turns into executors; the
// grid is clamped to the mode lengths. A plan's grid has three
// entries, so MB plans need a third-order t; the other methods run at
// any order. MethodCOO executors alias t's storage, so values
// rewritten in place between runs are seen by the next run.
func NewEngine(t *nmode.Tensor, plan Plan, modes ...int) (*nmode.Engine, error) {
	opts, err := plan.Options()
	if err != nil {
		return nil, err
	}
	return nmode.NewEngine(t, opts, modes...)
}

// PlanKernel predicts the rank-strip kernel variant an executor built
// for plan resolves at the given rank, without building one — the same
// width clamp and registry lookup the cold ensure half performs.
// Methods that never register-block report the zero Variant.
func PlanKernel(plan Plan, rank int) kernel.Variant {
	if plan.Method != MethodRankB && plan.Method != MethodMBRankB || rank <= 0 {
		return kernel.Variant{}
	}
	bs := plan.RankBlockCols
	if bs <= 0 || bs > rank {
		bs = rank
	}
	return kernel.Resolve(bs).Variant
}
