package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: what the full run and the
// A/A check pass to each child.
const defaultSeconds = 12

// runChild runs one workload in a child process of this same binary, so its
// peak RSS is its own, and returns the result it printed. The ungated timing
// lines of an untraced run are folded into the result's metrics.
func runChild(root, workload string, seed int64, seconds, trace int, echo bool) (line, error) {
	exe, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	if echo {
		os.Stdout.Write(stdout.Bytes())
	}
	l, err := lastLine(stdout.Bytes())
	if err != nil {
		return l, fmt.Errorf("%s seed %d: no result line (%v; exit: %v)", workload, seed, err, runErr)
	}
	if runErr != nil {
		return l, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	for _, text := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(text)
		if len(f) < 3 || !isWallClock(f[0]) {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			l.Metrics[f[0]] = lineMetric{Value: v, Unit: f[2]}
		}
	}
	return l, nil
}

// runAll is the one command: every workload, untraced then traced, every
// metric by name and unit. It returns the process exit code.
func runAll(root string, seed int64, seconds int) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := runChild(root, w.name, seed, seconds, trace, true); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
			}
		}
	}
	return code
}

// runAA runs two interleaved sets of untraced runs of this one binary, each
// run of a set with another seed, and compares them the way a later change is
// compared with its parent: per end-to-end metric the two medians must agree
// within the bound, and the spread of each set (interquartile range over
// median) must stay within it too, set-up time excepted. It returns the
// process exit code.
func runAA(root string, seconds, runs int) int {
	type key struct{ workload, metric string }
	aaDefs := append(endToEndDefs[:len(endToEndDefs):len(endToEndDefs)], wallClockDefs...)
	sets := [2]map[key][]float64{{}, {}}
	for k := 0; k < runs; k++ {
		for _, w := range workloads {
			// Alternate which set goes first so a drift of the host does not
			// land on one side.
			for _, set := range [][2]int{{0, 1}, {1, 0}}[k%2] {
				l, err := runChild(root, w.name, int64(k+1), seconds, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				fmt.Printf("run %-15s set %c seed %2d", w.name, 'A'+set, k+1)
				for _, d := range aaDefs {
					v := l.Metrics[d.name].Value
					sets[set][key{w.name, d.name}] = append(sets[set][key{w.name, d.name}], v)
					fmt.Printf(" %s=%.4f", d.name, v)
				}
				fmt.Println()
			}
		}
	}
	code := 0
	fmt.Printf("%-15s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse%", "iqrA%", "iqrB%", "bound%")
	for _, w := range workloads {
		for _, d := range aaDefs {
			a, b := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // how much B is worse than A
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			if d.bound == 0 {
				fmt.Printf("%-15s %-22s %12.4f %12.4f %+8.2f %8.2f %8.2f %6s\n", w.name, d.name, ma, mb, 100*worse, 100*sa, 100*sb, "none")
				continue
			}
			verdict := ""
			if math.Abs(worse) > d.bound {
				verdict = " MEDIANS DISAGREE"
			}
			if d.name != "setup_s" && math.Max(sa, sb) > d.bound {
				verdict += " SPREAD OVER BOUND"
			}
			if verdict != "" {
				code = 1
			}
			fmt.Printf("%-15s %-22s %12.4f %12.4f %+8.2f %8.2f %8.2f %6.1f%s\n",
				w.name, d.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	return code
}

func isWallClock(name string) bool {
	for _, d := range wallClockDefs {
		if d.name == name {
			return true
		}
	}
	return false
}
