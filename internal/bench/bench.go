// Package bench regenerates every table and figure of the paper's
// observation and evaluation sections (the experiment index of DESIGN.md
// §3). Experiments lists them; each runner returns a Result whose rows
// mirror the series the paper plots and which records any floor the run
// broke. cmd/grafbench prints them, and TestExperimentFloors runs each at
// quick scale.
package bench

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/sim"
)

// Experiment is one entry of the experiment index: an id and its runner.
type Experiment struct {
	ID  string
	run func(Scale) Result
}

// Run runs the experiment at scale s; the result carries the experiment's id.
func (e Experiment) Run(s Scale) Result {
	res := e.run(s)
	res.ID = e.ID
	return res
}

// Experiments is every experiment in run order: cheap observation
// experiments first, then grouped by the trained pipeline they share.
var Experiments = []Experiment{
	{"fig01", fig01InstanceCreation},
	{"fig06", fig06LatencyCurves},
	{"fig02", fig02SurgeInstances},
	{"fig03", fig03SurgeLatency},
	{"fig07", fig07CascadingEffect},
	{"tab01", tab01Hyperparameters},
	{"tab02", tab02PredictionError},
	{"fig11", fig11MPNNAblation},
	{"fig12", fig12LossHeatmap},
	{"fig13", fig13SearchSpace},
	{"fig14", fig14TotalCPU},
	{"fig15", fig15PerMSBoutique},
	{"fig16", fig16PerMSSocial},
	{"fig17", fig17SLOTargeting},
	{"fig18", fig18UserScaling},
	{"tab03", tab03Budget},
	{"fig19", fig19CostBenefit},
	{"fig20", fig20AzureReplay},
	{"fig21", fig21SurgeComparison},
	{"fig22", fig22Convergence},
	{"abl-loss", ablationLoss},
	{"abl-steps", ablationSteps},
	{"abl-solver", ablationSolver},
	{"solver-loop", solverLoop},
	{"abl-sampler", ablationSampler},
	{"abl-integer", ablationInteger},
	{"abl-anomaly", ablationAnomaly},
	{"abl-partition", ablationPartition},
	{"scalability", scalability},
	{"chaos", chaosRobustness},
	{"recovery", recovery},
	{"drift", drift},
	{"replay", obsReplay},
	{"obs-overhead", obsOverhead},
	{"fleet-rpc", fleetRPC},
	{"router-failover", routerFailover},
	{"overload", overloadLadder},
	{"slo-burn", sloBurn},
	{"trace-overhead", traceOverhead},
	{"forecast", forecastVsReactive},
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // experiment id, e.g. "fig02"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	fails  []string // floors the run broke
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form annotation (assumptions, paper reference value).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fail records a floor the run broke: Format prints it and Err returns it.
func (r *Result) Fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// Err returns the floors the run broke, or nil if it broke none.
func (r Result) Err() error {
	if len(r.fails) == 0 {
		return nil
	}
	return errors.New(r.ID + ": " + strings.Join(r.fails, "; "))
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
	for _, f := range r.fails {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return b.String()
}

// Scale selects how much compute an experiment spends. Tests run at quick;
// cmd/grafbench defaults to standard; full approaches the paper's budgets.
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

// quick is the CI/test scale: seconds of wall time end to end.
func quick() Scale {
	return Scale{
		Name: "quick", Samples: 1100, Iterations: 360, Batch: 64,
		SteadyS: 480, SurgeS: 200, CalibrationProbes: 6,
	}
}

// standard is the grafbench scale: minutes of wall time end to end.
func standard() Scale {
	return Scale{
		Name: "standard", Samples: 8000, Iterations: 2600, Batch: 128,
		SteadyS: 700, SurgeS: 240, CalibrationProbes: 12,
	}
}

// full approaches the paper's budgets (50 K samples; 20 K iterations of batch
// 256, against Table 1's 70 K). One core.Train of Online Boutique at full
// takes 2 min 11 s wall on a 2-vCPU Xeon (grafbench -scale full).
func full() Scale {
	return Scale{
		Name: "full", Samples: 50000, Iterations: 20000, Batch: 256,
		SteadyS: 900, SurgeS: 300, CalibrationProbes: 24,
	}
}

// ParseScale returns the scale called name: quick, standard or full.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{quick(), standard(), full()} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("unknown scale %q", name)
}

// perOp is a timed loop's cost per operation: wall clock, heap bytes and
// allocations.
type perOp struct{ ns, bytes, allocs float64 }

// measure runs fn, which performs n operations, and returns its cost per
// operation.
func measure(n int, fn func()) perOp {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return perOp{float64(wall.Nanoseconds()) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)}
}

// least keeps the smaller of each reading of p and q.
func (p perOp) least(q perOp) perOp {
	return perOp{min(p.ns, q.ns), min(p.bytes, q.bytes), min(p.allocs, q.allocs)}
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
