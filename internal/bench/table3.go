package bench

import (
	"fmt"

	"spblock/internal/core"
	"spblock/internal/dist"
	"spblock/internal/la"
	"spblock/internal/mpi"
	"spblock/internal/nmode"
	"spblock/internal/partition"
)

// Table3Nodes are the node counts of Table III (two MPI ranks per node,
// matching the paper's one rank per socket).
var Table3Nodes = []int{1, 2, 4, 8, 16, 32, 64}

// table3Rank is the decomposition rank for the distributed runs.
const table3Rank = 32

// Table3 regenerates the distributed execution-time comparison:
// distributed SPLATT (medium-grained, unblocked local kernel) vs our 3D
// (medium-grained + blocked local kernel) vs our 4D (rank-partitioned)
// for NELL2 and Netflix. The 4D column reports the best rank-part count
// t over the divisors of p, mirroring the paper's "determine an optimal
// partition count t".
//
// Per-rank compute is measured serially on this host; communication is
// modeled with an α-β cost model from the actual byte volumes (see
// internal/mpi).
func Table3(cfg Config, nodes []int) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(nodes) == 0 {
		nodes = Table3Nodes
	}
	t := &Table{
		Title:  fmt.Sprintf("Table III: distributed execution time (rank %d, 2 ranks/node, modeled comm)", table3Rank),
		Note:   "SPLATT = medium-grained + unblocked kernel; 3D = medium-grained + MB+RankB kernel; 4D = rank-partitioned, best t",
		Header: []string{"Dataset", "Nodes", "SPLATT (s)", "3D grid", "3D (s)", "4D grid", "4D (s)", "best vs SPLATT"},
	}
	model := mpi.DefaultCluster()
	for _, name := range []string{"NELL2", "Netflix"} {
		x, _, err := Dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		for _, n := range nodes {
			p := 2 * n
			baseline, err := dist.MTTKRP(x, factorB(cfg, x, name), factorC(cfg, x, name), dist.Config{
				Ranks: p,
				Plan:  core.Plan{Method: core.MethodSPLATT, Workers: 1},
				Model: model,
			})
			if err != nil {
				return nil, err
			}
			ours3D, err := dist.MTTKRP(x, factorB(cfg, x, name), factorC(cfg, x, name), dist.Config{
				Ranks: p,
				Plan:  localBlockedPlan(),
				Model: model,
			})
			if err != nil {
				return nil, err
			}

			best4D := (*dist.Result)(nil)
			for _, tp := range partition.Divisors(p) {
				if tp == 1 || tp > table3Rank/8 || table3Rank%tp != 0 {
					continue
				}
				res, err := dist.MTTKRP(x, factorB(cfg, x, name), factorC(cfg, x, name), dist.Config{
					Ranks:     p,
					RankParts: tp,
					Plan:      localBlockedPlan(),
					Model:     model,
				})
				if err != nil {
					continue // e.g. inner grid impossible for tiny dims
				}
				if best4D == nil || res.ModeledSeconds < best4D.ModeledSeconds {
					best4D = res
				}
			}

			bestSec := ours3D.ModeledSeconds
			if best4D != nil && best4D.ModeledSeconds < bestSec {
				bestSec = best4D.ModeledSeconds
			}
			fourDGrid, fourDSec := "-", "-"
			if best4D != nil {
				fourDGrid = best4D.Grid.String()
				fourDSec = fmt.Sprintf("%.4f", best4D.ModeledSeconds)
			}
			t.Add(name, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.4f", baseline.ModeledSeconds),
				ours3D.Grid.String(),
				fmt.Sprintf("%.4f", ours3D.ModeledSeconds),
				fourDGrid, fourDSec,
				fmt.Sprintf("%.2fx", baseline.ModeledSeconds/bestSec),
			)
		}
	}
	return t, nil
}

func localBlockedPlan() core.Plan {
	// Local blocks are already cache-scaled by the distribution, so a
	// modest MB grid plus rank blocking matches what the paper applies
	// "locally on the partition of each processor".
	return core.Plan{Method: core.MethodMBRankB, Grid: [3]int{1, 2, 1}, RankBlockCols: 16, Workers: 1}
}

// factorB/factorC build deterministic factor matrices per data set.
func factorB(cfg Config, x *nmode.Tensor, name string) *la.Matrix {
	return randomMatrix(x.Dims[1], table3Rank, cfg.Seed+int64(len(name)))
}

func factorC(cfg Config, x *nmode.Tensor, name string) *la.Matrix {
	return randomMatrix(x.Dims[2], table3Rank, cfg.Seed+int64(len(name))+100)
}
