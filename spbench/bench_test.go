package main

import (
	"encoding/json"
	"os"
	"testing"
)

// runTiny generates a workload at a twentieth of its size and runs it in
// process. At this scale the serve-mixed budget still keeps the upload
// checks exact (see serveBudgetMB).
func runTiny(t *testing.T, workload string, trace, perturb bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.2, trace: trace, scale: 0.05,
		dir: t.TempDir(), perturb: perturb}
	w := workloads[workload]
	if err := w.gen(cfg); err != nil {
		t.Fatalf("gen: %v", err)
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	res, err := w.run(cfg, tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := res.complete(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := runTiny(t, name, trace, false)
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, res.failed, res.attempted, res.failures)
				}
				want, got := endToEnd, res.e2e
				if trace {
					want, got = perLayer, res.layer
				}
				if len(got) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(got), len(want))
				}
				for m, unit := range want {
					if got[m].Unit != unit {
						t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, m, got[m].Unit, unit)
					}
				}
				for m := range endToEnd {
					if !trace && res.e2e[m].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want positive", m, res.e2e[m].Value)
					}
				}
			}
		})
	}
}

func TestPerturbedResultFailsTheCheck(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := runTiny(t, name, false, true)
			if res.failed == 0 {
				t.Fatalf("a perturbed result passed every check (%d operations)", res.attempted)
			}
		})
	}
}

func TestLedgerAccountsForTracedWall(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", "", -1)
	dec := tr.begin("als.cpals", "als", root)
	for i := 0; i < 3; i++ {
		tr.end(tr.begin("engine.mttkrp.mode0", "engine", dec))
	}
	tr.end(dec)
	tr.end(root)
	l := tr.ledger()
	total := l.Unattributed
	for _, ns := range l.Self {
		total += ns
	}
	if total != l.Wall || l.Wall <= 0 {
		t.Fatalf("layers %v + unattributed %d = %d, want wall %d", l.Self, l.Unattributed, total, l.Wall)
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		code   map[string]string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.listed) != len(set.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code reports %d", len(set.listed), len(set.code))
		}
		for _, m := range set.listed {
			if set.code[m.Name] != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s) is not reported with that unit", m.Name, m.Unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
}
