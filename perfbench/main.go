// Command perfbench is sectorpack's end-to-end benchmark. One run measures
// one workload for a fixed time and prints, as its last stdout line, a JSON
// object with the keys correct, attempted, failed and metrics:
//
//	perfbench -workload solve-cold -seed 1 -seconds 25 -trace 0
//
// Workloads (see README.md for why each exists):
//
//   - solve-cold: distinct seeded instances POSTed to /solve and
//     /solve/batch through sectorproxy → sectord, so every cache lookup
//     misses and the upper bound and the search do the work;
//   - solve-hot: a 16-body pool filled into the cache during set-up, so
//     every timed request is a hit and decode, fingerprint, verify and
//     encode do the work;
//   - churn-100k: in-process delta sessions on the 100k-churn tier
//     (session.New, then localized 1% churn deltas through Apply).
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is split into an untraced and a traced half, and the metrics are the
// per-layer ones measured by timing the harness's own calls into each
// layer's public functions (spans are written under -out). Any answer the
// correctness gate rejects makes the run print "correct": false and exit 1.
// -workload all runs every workload in turn and prints a summary table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the sectord and sectorproxy binaries
	out      string // directory for span files
	tiny     bool   // tiny inputs, for the harness smoke test
	corrupt  string // corruption mode (corruptProfit, corruptBound) injected into one answer to prove the gate trips; "" for none
}

// setupsPerRun is how many times an untraced run sets up; setup_s is the
// median, which keeps one slow start-up from moving it.
const setupsPerRun = 3

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run produces: the result plus the human
// summary lines printed before it.
type report struct {
	result
	notes []string
}

var workloads = map[string]func(config) (*report, error){
	"solve-cold": runSolveCold,
	"solve-hot":  runSolveHot,
	"churn-100k": runChurn,
}

var workloadOrder = []string{"solve-cold", "solve-hot", "churn-100k"}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: solve-cold, solve-hot, churn-100k, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the sectord and sectorproxy binaries")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files")
	flag.StringVar(&cfg.corrupt, "corrupt", "", "gate self-test: corrupt one received answer inside the harness, its profit or its upper bound (profit, bound)")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if cfg.corrupt != "" && cfg.corrupt != corruptProfit && cfg.corrupt != corruptBound {
		fatalf("-corrupt must be %s or %s", corruptProfit, corruptBound)
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	fmt.Println(machineLine())
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown -workload %q (want %s or all)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	rep, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	printTable(cfg.workload, rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload with the same settings and prints one summary
// table; it fails if any workload fails or is incorrect.
func runAll(cfg config) int {
	code := 0
	var reps []*report
	for _, name := range workloadOrder {
		c := cfg
		c.workload = name
		rep, err := workloads[name](c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
			continue
		}
		for _, n := range rep.notes {
			fmt.Println(n)
		}
		if !rep.Correct {
			code = 1
		}
		reps = append(reps, rep)
		printTable(name, rep)
	}
	out := map[string]result{}
	for i, rep := range reps {
		out[workloadOrder[i]] = rep.result
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	return code
}

// printTable prints a result's metrics by name and unit, with the op counts.
func printTable(workload string, rep *report) {
	failRatio := 0.0
	if rep.Attempted > 0 {
		failRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("== %s: attempted=%d succeeded=%d failed=%d fail_ratio=%.4g correct=%v\n",
		workload, rep.Attempted, rep.Attempted-rep.Failed, rep.Failed, failRatio, rep.Correct)
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Printf("   %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// machineLine describes the machine the run is recorded on.
func machineLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					model = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("machine: cpu=%q num_cpu=%d gomaxprocs=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// measureWindow is the measured time of one phase.
func measureWindow(cfg config) time.Duration {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2 // untraced half, then traced half
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
