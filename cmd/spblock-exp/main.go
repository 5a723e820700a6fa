// Command spblock-exp regenerates the tables and figures of the
// paper's evaluation (Sec. IV and VI). Each experiment prints an
// aligned text table (or CSV with -csv).
//
// Usage:
//
//	spblock-exp -exp fig2                 # arithmetic intensity model
//	spblock-exp -exp table1               # pressure point analysis
//	spblock-exp -exp table2               # data-set inventory
//	spblock-exp -exp fig4                 # RankB block-size sweep
//	spblock-exp -exp fig5                 # MB grid sweep
//	spblock-exp -exp fig5traffic          # MB grid sweep, simulated traffic
//	spblock-exp -exp tuning               # autotuning strategy comparison
//	spblock-exp -exp fig6                 # speedup over SPLATT
//	spblock-exp -exp fig6traffic          # simulated DRAM traffic view
//	spblock-exp -exp table3               # distributed 3D vs 4D
//	spblock-exp -exp chaos                # CP-ALS under injected faults
//	spblock-exp -exp imbalance            # work stealing against one worker on skewed data
//	spblock-exp -exp ooc                  # out-of-core CP-ALS working-set sweep
//	spblock-exp -exp all                  # everything
//
// -scale shrinks or grows the data sets (1.0 = the registry's bench
// scale, which is itself a documented scale-down of the paper's
// shapes); -quick is shorthand for the smoke-test configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spblock/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig2|table1|table2|fig4|fig5|fig5traffic|fig6|fig6traffic|table3|chaos|tuning|imbalance|ooc|all")
		scale   = flag.Float64("scale", 1.0, "data-set scale factor (1.0 = bench scale)")
		reps    = flag.Int("reps", 3, "timed repetitions per measurement (best kept)")
		workers = flag.Int("workers", 0, "kernel parallelism (0 = GOMAXPROCS)")
		seed    = flag.Int64("seed", 42, "generator seed")
		quick   = flag.Bool("quick", false, "tiny smoke-test configuration")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		ranks   = flag.String("ranks", "", "comma-separated rank list for fig6 (default 16..512)")
		nodes   = flag.String("nodes", "", "comma-separated node list for table3 (default 1..64)")
		sets    = flag.String("datasets", "", "comma-separated dataset list for fig6")
		trRank  = flag.Int("trafficrank", 128, "rank for fig6traffic")

		chaosKinds = flag.String("chaos-kinds", "", "comma-separated fault kinds for chaos (default none,drop,dup,corrupt,delay,stall,crash)")
		chaosRate  = flag.Float64("chaos-rate", 0.02, "per-message fault probability for chaos link faults")
		chaosSeed  = flag.Int64("chaos-seed", 1, "fault-schedule seed for chaos")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Reps: *reps, Workers: *workers, Seed: *seed}
	if *quick {
		cfg = bench.Quick()
	}

	rankList, err := parseInts(*ranks)
	if err != nil {
		fatal(err)
	}
	nodeList, err := parseInts(*nodes)
	if err != nil {
		fatal(err)
	}
	var setList []string
	if *sets != "" {
		setList = strings.Split(*sets, ",")
	}
	var kindList []string
	if *chaosKinds != "" {
		kindList = strings.Split(*chaosKinds, ",")
	}

	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}
	experiments := []experiment{
		{"fig2", func() (*bench.Table, error) { return bench.Fig2() }},
		{"table1", func() (*bench.Table, error) { return bench.Table1(cfg) }},
		{"table2", func() (*bench.Table, error) { return bench.Table2(cfg) }},
		{"fig4", func() (*bench.Table, error) { return bench.Fig4(cfg) }},
		{"fig5", func() (*bench.Table, error) { return bench.Fig5(cfg) }},
		{"fig5traffic", func() (*bench.Table, error) { return bench.Fig5Traffic(cfg, *trRank) }},
		{"fig6", func() (*bench.Table, error) { return bench.Fig6(cfg, rankList, setList) }},
		{"fig6traffic", func() (*bench.Table, error) { return bench.Fig6Traffic(cfg, *trRank, setList) }},
		{"table3", func() (*bench.Table, error) { return bench.Table3(cfg, nodeList) }},
		{"chaos", func() (*bench.Table, error) { return bench.Chaos(cfg, kindList, *chaosRate, *chaosSeed) }},
		{"tuning", func() (*bench.Table, error) { return bench.TuningTable(cfg, *trRank, setList) }},
		{"imbalance", func() (*bench.Table, error) { return bench.Imbalance(cfg) }},
		{"ooc", func() (*bench.Table, error) { return bench.OOC(cfg) }},
	}

	matched := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		matched = true
		start := time.Now()
		table, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		if *csv {
			if err := table.RenderCSV(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			if err := table.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		}
	}
	if !matched {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spblock-exp:", err)
	os.Exit(1)
}
