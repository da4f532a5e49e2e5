package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

// binDir holds sectord and sectorproxy, built once for the package's tests.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := exec.Command("go", "build", "-o", dir+"/", "sectorpack/cmd/sectord", "sectorpack/cmd/sectorproxy").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build daemons: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1.5, trace: trace,
		bin: binDir, out: t.TempDir(), tiny: true,
	}
}

// TestEveryMetricIsReported runs each workload at a tiny size, untraced and
// traced, and requires exactly the metrics BENCHMARK.json names, each with
// its unit, from a correct run.
func TestEveryMetricIsReported(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				run, ok := workloads[w.Name]
				if !ok {
					t.Fatalf("no workload %q", w.Name)
				}
				rep, err := run(tinyConfig(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", rep.Correct, rep.Attempted, rep.Failed, rep.notes)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedAnswerTripsGate corrupts one received answer inside the
// harness and requires the correctness gate to reject the run: on the HTTP
// workloads both a wrong profit and a missing upper bound, on churn-100k
// (whose session answers carry no bound) a wrong assignment.
func TestCorruptedAnswerTripsGate(t *testing.T) {
	for _, name := range workloadOrder {
		modes := []string{corruptProfit, corruptBound}
		if name == "churn-100k" {
			modes = modes[:1]
		}
		for _, mode := range modes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg := tinyConfig(t, name, false)
				cfg.corrupt = mode
				rep, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Correct || rep.Failed < 1 {
					t.Fatalf("corrupted answer not caught: correct=%v failed=%d", rep.Correct, rep.Failed)
				}
			})
		}
	}
}

// TestColdOpsOutlastSetUp takes solve-cold ops past the ones generated in
// set-up and requires them to continue the same seeded sequence, so a
// faster program never exhausts the distinct instances.
func TestColdOpsOutlastSetUp(t *testing.T) {
	cfg := config{seed: 3, seconds: 0.01, tiny: true}
	ops, err := newColdOps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(ops.pre) - 1, len(ops.pre), 5 * len(ops.pre)} {
		got, err := ops.op(i)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := ops.op(i)
		want, err := coldOp(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != again || got.path != want.path || !bytes.Equal(got.body, want.body) {
			t.Errorf("op %d is not the seeded sequence's op %d", i, i)
		}
	}
}
