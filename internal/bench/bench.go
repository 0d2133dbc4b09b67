// Package bench regenerates every table and figure of the paper's
// observation and evaluation sections (the experiment index of DESIGN.md
// §3). Each runner returns a Result whose rows mirror the series the paper
// plots; cmd/grafbench prints them and the root bench_test.go exposes one
// testing.B target per experiment.
package bench

import (
	"fmt"
	"math"
	"strings"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string // experiment id, e.g. "fig02"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form annotation (assumptions, paper reference value).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the result as an aligned text table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale selects how much compute an experiment spends. Tests and the root
// benchmarks default to Quick; cmd/grafbench defaults to Standard; Full
// approaches the paper's budgets.
type Scale struct {
	Name string

	// Sample collection + training.
	Samples    int
	Iterations int
	Batch      int

	// Dynamic experiments.
	SteadyS float64 // steady-state measurement horizon (seconds, simulated)
	SurgeS  float64 // post-surge observation horizon

	// Calibration probes for the analytic labeler.
	CalibrationProbes int
}

// Quick is the CI/test scale: seconds of wall time end to end.
func Quick() Scale {
	return Scale{
		Name: "quick", Samples: 1100, Iterations: 360, Batch: 64,
		SteadyS: 480, SurgeS: 200, CalibrationProbes: 6,
	}
}

// Standard is the grafbench scale: minutes of wall time end to end.
func Standard() Scale {
	return Scale{
		Name: "standard", Samples: 8000, Iterations: 2600, Batch: 128,
		SteadyS: 700, SurgeS: 240, CalibrationProbes: 12,
	}
}

// Full approaches the paper's budgets (50 K samples; 20 K iterations of batch
// 256, against Table 1's 70 K). One core.Train of Online Boutique at Full
// takes 2 min 11 s wall on a 2-vCPU Xeon — grafbench -scale full, and the root
// benchmarks under GRAF_BENCH_SCALE=full.
func Full() Scale {
	return Scale{
		Name: "full", Samples: 50000, Iterations: 20000, Batch: 256,
		SteadyS: 900, SurgeS: 300, CalibrationProbes: 24,
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func di(v int) string     { return fmt.Sprintf("%d", v) }
func ms(sec float64) string {
	return fmt.Sprintf("%.1f", sec*1000)
}

// newCluster deploys a on eng with the evaluation's cluster configuration.
// The runners read whole-run intervals of its telemetry (settled-phase
// quantiles, arrival rates at past instants), so it keeps all of it, whatever
// shorter look-back the controllers a runner attaches declare.
func newCluster(eng *sim.Engine, a *app.App) *cluster.Cluster {
	cl := cluster.New(eng, a, cluster.DefaultConfig())
	cl.DeclareLookback(cluster.AllSignals, math.Inf(1))
	return cl
}
