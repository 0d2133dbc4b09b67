// Command benchmark is the repository's one performance benchmark: four
// control-plane workloads over the stack nn → gnn → core → sim/cluster →
// fleet → rpc, timed from outside through the layers' public functions.
//
//	benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// runs one workload in this process and prints, as the last line of standard
// output, one JSON object with its end-to-end metrics (--trace 0) or its
// per-layer metrics (--trace 1). Without --workload it runs all four, each in
// a child process, and prints every metric by name and unit; with -aa it runs
// two interleaved sets of runs of this same binary and fails if their medians
// disagree by more than a metric's bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// buildDir is where run.sh puts the binary and the Go caches, and where runs
// keep their scratch files: everything the benchmark writes stays inside the
// checkout.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run in this process (default: all four, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: engine seeds and rate noise derive from it")
	seconds := flag.Int("seconds", defaultSeconds, "nominal length of the timed phase; sizes the number of rounds")
	trace := flag.Int("trace", 0, "1 = traced run that prints the per-layer metrics")
	aa := flag.Bool("aa", false, "A/A check: two interleaved sets of runs of this binary must agree within the bounds")
	runs := flag.Int("runs", 5, "runs per set and workload in -aa mode, each with another seed")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *runs < 2 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	switch {
	case *aa:
		os.Exit(runAA(root, *seconds, *runs))
	case *name == "":
		os.Exit(runAll(root, *seed, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(runOpts{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, root: root, train: trainModel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEndDefs
	if *trace == 1 {
		defs = perLayerDefs
	}
	printResult(root, *seed, res, defs)
	if !res.correct {
		os.Exit(1)
	}
}

// checkoutRoot finds the directory that holds BENCHMARK.json: the working
// directory under run.sh, its parent under `go run -C benchmark .`.
func checkoutRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if err := os.MkdirAll(filepath.Join(dir, buildDir), 0o755); err != nil {
				return "", err
			}
			if err := os.MkdirAll(filepath.Join(dir, "benchmark", "out"), 0o755); err != nil {
				return "", err
			}
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the checkout root (BENCHMARK.json not found)")
}

// line is the JSON object a run ends with.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine shapes a result as the JSON object a run ends with: every
// metric of defs once, with its unit. A layer the workload does not exercise
// reads 0.
func resultLine(res result, defs []metricDef) line {
	l := line{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		l.Metrics[d.name] = lineMetric{Value: res.metrics[d.name], Unit: d.unit}
	}
	return l
}

// printResult prints every metric by name and unit, the host it was measured
// on and any failed check, then the one-line JSON result.
func printResult(root string, seed int64, res result, defs []metricDef) {
	fp := hostFingerprint(root)
	fmt.Printf("# %s seed=%d closed-loop parallelism=%d cpu=%q nproc=%d go=%s commit=%s\n",
		res.workload, seed, parallelism, fp.CPU, fp.NProc, fp.Go, fp.Commit)
	l := resultLine(res, defs)
	for _, d := range defs {
		fmt.Printf("%-38s %14.4f %s\n", d.name, l.Metrics[d.name].Value, d.unit)
	}
	if _, ok := l.Metrics[wallClockDefs[0].name]; !ok {
		// An untraced run has the best timings there are — three plain
		// repetitions — so it prints them too, outside the gated result.
		for _, d := range wallClockDefs {
			fmt.Printf("%-38s %14.4f %s (no bound)\n", d.name, res.metrics[d.name], d.unit)
		}
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("operations attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	b, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// lastLine parses the JSON result a child run printed last.
func lastLine(stdout []byte) (line, error) {
	var l line
	text := strings.TrimSpace(string(stdout))
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		text = text[i+1:]
	}
	err := json.Unmarshal([]byte(text), &l)
	return l, err
}
