package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"graf/internal/app"
	"graf/internal/gnn"
)

// trained is an application with a latency model fit by Train with
// graf.Train's learning rate and probes on the repo benchmark's small budget:
// a few seconds per application, and the surface the solver meets in
// production — piecewise linear, creased, with more than one basin.
type trained struct {
	app   *app.App
	spec  TrainSpec
	model *gnn.Model
	b     Bounds
}

func quickModel(a *app.App, seed int64) trained {
	s := TrainSpec{
		SLO: 0.25, MinRate: 50, MaxRate: 300, Samples: 800, Iterations: 400, Batch: 32,
		LR: ProductLR, CalibrationProbes: ProductCalibrationProbes, Seed: seed,
	}
	tr := Train(a, s)
	return trained{app: a, spec: s, model: tr.Model, b: tr.Bounds}
}

var (
	boutiqueModel = sync.OnceValue(func() trained { return quickModel(app.OnlineBoutique(), 1) })
	socialModel   = sync.OnceValue(func() trained { return quickModel(app.SocialNetwork(), 1) })
)

// gapPoint is one (application, SLO, rate) problem solved by both versions.
type gapPoint struct {
	app       string
	slo, rate float64
	v1, v2    Solution
}

func (p gapPoint) gapPct() float64 {
	return 100 * (p.v2.TotalQuota - p.v1.TotalQuota) / p.v1.TotalQuota
}

// gapGrid solves (OnlineBoutique, SocialNetwork) × the solver grid's 3 SLOs
// × 14 rates with version 1 on its shipped 600 iterations and with version 2.
var gapGrid = sync.OnceValue(func() []gapPoint {
	v1, v2 := DefaultSolverConfig(), DefaultSolverConfig()
	v1.Version = 1
	var out []gapPoint
	for _, tr := range []trained{boutiqueModel(), socialModel()} {
		an := NewAnalyzer(tr.app)
		solverGrid(func(slo, rate float64) {
			load := an.Distribute(tr.app.MixRates(rate))
			out = append(out, gapPoint{
				app: tr.app.Name, slo: slo, rate: rate,
				v1: Solve(tr.model, load, slo, tr.b.Lo, tr.b.Hi, v1),
				v2: Solve(tr.model, load, slo, tr.b.Lo, tr.b.Hi, v2),
			})
		})
	}
	return out
})

// TestSolverOptimalityGap is the harness behind the solver change: version 2
// must be feasible wherever version 1 is, no more expensive on average, close
// to it point by point, and an order of magnitude cheaper to run. Run with -v
// for the table EXPERIMENTS.md quotes.
func TestSolverOptimalityGap(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	grid := gapGrid()
	var gaps []float64
	var calls []int
	mean, within2, converged := 0.0, 0, 0
	var table strings.Builder
	for _, p := range grid {
		gap := p.gapPct()
		gaps = append(gaps, gap)
		calls = append(calls, p.v2.Iterations)
		mean += gap / float64(len(grid))
		if gap <= 2 {
			within2++
		}
		if p.v2.Converged {
			converged++
		}
		fmt.Fprintf(&table, "%-15s slo %.2f rate %3.0f | v1 Σ %6.0f L %.4f | v2 Σ %6.0f L %.4f calls %3d | gap %+5.1f%%\n",
			p.app, p.slo, p.rate, p.v1.TotalQuota, p.v1.Predicted, p.v2.TotalQuota, p.v2.Predicted, p.v2.Iterations, gap)
		if p.v1.Predicted <= p.slo && !(p.v2.Predicted <= p.slo) {
			t.Errorf("%s slo %v rate %v: version 1 meets the SLO (%v), version 2 does not (%v)", p.app, p.slo, p.rate, p.v1.Predicted, p.v2.Predicted)
		}
		if gap > 5 {
			t.Errorf("%s slo %v rate %v: Σ quota %.0f is %.1f%% above version 1's %.0f (limit +5%%)", p.app, p.slo, p.rate, p.v2.TotalQuota, gap, p.v1.TotalQuota)
		}
	}
	sort.Float64s(gaps)
	sort.Ints(calls)
	t.Logf("\n%s%d points: Σ quota gap mean %+.2f%%, min %+.1f%%, max %+.1f%%; %d within +2%%; model calls median %d, max %d; %d converged",
		table.String(), len(grid), mean, gaps[0], gaps[len(gaps)-1], within2, calls[len(calls)/2], calls[len(calls)-1], converged)
	if len(grid) < 2*3*12 {
		t.Fatalf("grid has %d points, want at least 72", len(grid))
	}
	if mean > 0 {
		t.Errorf("mean Σ quota gap %+.2f%%, want ≤ 0", mean)
	}
	if 10*within2 < 9*len(grid) {
		t.Errorf("%d of %d points within +2%% of version 1, want ≥ 90%%", within2, len(grid))
	}
	if median := calls[len(calls)/2]; median > 100 {
		t.Errorf("median %d model calls per solve, want ≤ 100", median)
	}
	if 10*converged < 9*len(grid) {
		t.Errorf("%d of %d solves converged, want ≥ 90%%", converged, len(grid))
	}
}

// honestyFaces are the upper edges of the honesty table's bins: an answer's
// distance to the nearest lower face of the search box, as a fraction of
// that service's width of the box.
var honestyFaces = []float64{0.01, 0.05, 0.15, 1}

// honestyBin is one row of the honesty table: the answers whose distance to
// the nearest lower face is in [from, to) — up to and including to = 1 in
// the last bin.
type honestyBin struct {
	from, to float64
	answers  int
	metPct   float64 // % of answers whose measured p99 is at most the SLO
	ratio    float64 // median of measured over predicted p99
}

// honestyBins bins a grid's answers, measured at one seed, by their
// distance to the nearest lower face of b: there the model has seen the
// fewest samples. It also returns the grid's score, as Honesty counts it.
func honestyBins(grid []gridAnswer, b Bounds) (bins []honestyBin, met int, quota float64) {
	metIn := make([]int, len(honestyFaces))
	ratios := make([][]float64, len(honestyFaces))
	for _, p := range grid {
		face := 1.0
		for i, q := range p.sol.Quotas {
			if w := b.Hi[i] - b.Lo[i]; w > 0 {
				face = min(face, (q-b.Lo[i])/w)
			}
		}
		i := 0 // bin i holds [honestyFaces[i-1], honestyFaces[i])
		for i < len(honestyFaces)-1 && face >= honestyFaces[i] {
			i++
		}
		if p.p99[0] <= p.slo {
			metIn[i]++
			met++
		}
		ratios[i] = append(ratios[i], p.p99[0]/p.sol.Predicted)
		quota += p.sol.TotalQuota
	}
	bins = make([]honestyBin, len(honestyFaces))
	from := 0.0
	for i, to := range honestyFaces {
		bins[i] = honestyBin{from: from, to: to, answers: len(ratios[i])}
		from = to
		if k := len(ratios[i]); k > 0 {
			slices.Sort(ratios[i])
			bins[i].metPct = 100 * float64(metIn[i]) / float64(k)
			bins[i].ratio = (ratios[i][(k-1)/2] + ratios[i][k/2]) / 2
		}
	}
	return bins, met, quota
}

// TestSolverHonesty is the model's quality ratchet (ROADMAP item 15): the
// repo benchmark's recipe at training seeds 1–8 on both applications, each
// model's version-2 answers on the solver grid run in the simulator
// (measurement seed 7000 + training seed) and scored as Honesty scores them.
// Summed over the seeds, the met count may not fall below its floor and the
// mean Σ quota may not rise above its ceiling, both recorded on amd64 at
// 673e388; a change that moves either re-records it and says why. Run with -v
// for the per-seed scores and honesty bins EXPERIMENTS.md quotes, and the
// same score for each seed's labeller (NewLabelModel), which has no floor.
func TestSolverHonesty(t *testing.T) {
	if testing.Short() {
		t.Skip("trains sixteen models")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("scores recorded on amd64")
	}
	if raceEnabled {
		t.Skip("sixteen trainings under the race detector; CI runs it in a plain go test")
	}
	var table strings.Builder
	for _, c := range []struct {
		seed1    trained // the gap test's model, training seed 1
		minMet   int
		maxQuota float64 // mean Σ quota over the seeds, millicores
	}{
		{boutiqueModel(), 174, 150500.24},
		{socialModel(), 107, 237053.01},
	} {
		met, quota, labMet, labQuota := 0, 0.0, 0, 0.0
		for seed := int64(1); seed <= 8; seed++ {
			tr := c.seed1
			if seed > 1 {
				tr = quickModel(tr.app, seed)
			}
			bins, m, q := honestyBins(answerGrid(tr.app, tr.model, tr.b, DefaultSolverConfig(), []int64{7000 + seed}), tr.b)
			met, quota = met+m, quota+q
			answers := 0
			for _, bin := range bins {
				answers += bin.answers
				fmt.Fprintf(&table, "%-15s seed %d face [%.2f, %.2f) | %2d answers | p99 ≤ SLO %5.1f%% | measured/predicted p99 median %.2f\n",
					tr.app.Name, seed, bin.from, bin.to, bin.answers, bin.metPct, bin.ratio)
			}
			fmt.Fprintf(&table, "%-15s seed %d met %2d / 42, Σq %.0f\n", tr.app.Name, seed, m, q)
			m, _, q = Honesty(tr.app, NewLabelModel(tr.app, tr.b, tr.spec), tr.b, DefaultSolverConfig(), 7000+seed)
			labMet, labQuota = labMet+m, labQuota+q
			if answers != 3*14 {
				t.Errorf("%s seed %d: %d answers binned, want the grid's %d", tr.app.Name, seed, answers, 3*14)
			}
		}
		quota /= 8
		fmt.Fprintf(&table, "%-15s seeds 1–8 met %d / 336, mean Σq %.1f\n", c.seed1.app.Name, met, quota)
		fmt.Fprintf(&table, "%-15s seeds 1–8 labeller met %d / 336, mean Σq %.1f\n", c.seed1.app.Name, labMet, labQuota/8)
		if met < c.minMet {
			t.Errorf("%s: %d of 336 answers meet their SLO, below the floor of %d", c.seed1.app.Name, met, c.minMet)
		}
		if quota > c.maxQuota {
			t.Errorf("%s: mean Σ quota %.1f m, above the ceiling of %.1f m", c.seed1.app.Name, quota, c.maxQuota)
		}
	}
	t.Logf("\n%s", table.String())
}

// TestChainedWarmStartsDoNotPay measures the road not taken: starting every
// solve from the previous rate's answer on the full budget (ROADMAP's
// "always-warm" idea) instead of cold from the upper bounds. A 30-rate sweep
// up and back down, each rate solved cold and solved from the previous
// rate's warm answer. The chained answers save no quota (+0.3% in the mean,
// +6.7% at the worst point: a warm start inherits its predecessor's basin)
// and a fifth of the model calls (45 against 56 per solve), and a
// tenant-specific start would end the trajectory sharing the fleet's
// prediction cache lives on. So solves stay cold, and the brownout ladder's
// warm rung stays what it was: a short solve from LastRaw.
func TestChainedWarmStartsDoNotPay(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	tr := boutiqueModel()
	an := NewAnalyzer(tr.app)
	cfg := DefaultSolverConfig()
	var rates []float64
	for r := 55.0; r <= 300; r += 17.5 {
		rates = append(rates, r)
	}
	for i := len(rates) - 1; i >= 0; i-- {
		rates = append(rates, rates[i]-6)
	}
	var prev []float64
	var coldQ, warmQ, coldCalls, warmCalls, worst float64
	for _, rate := range rates {
		load := an.Distribute(tr.app.MixRates(rate))
		cold := Solve(tr.model, load, 0.25, tr.b.Lo, tr.b.Hi, cfg)
		warm := SolveFrom(tr.model, load, 0.25, tr.b.Lo, tr.b.Hi, cfg, prev)
		if !(warm.Predicted <= 0.25) || !warm.Converged {
			t.Errorf("rate %v: warm solve from %v: %+v", rate, prev, warm)
		}
		prev = warm.Quotas
		coldQ, warmQ = coldQ+cold.TotalQuota, warmQ+warm.TotalQuota
		coldCalls, warmCalls = coldCalls+float64(cold.Iterations), warmCalls+float64(warm.Iterations)
		worst = max(worst, 100*(warm.TotalQuota-cold.TotalQuota)/cold.TotalQuota)
	}
	gap, saved := 100*(warmQ-coldQ)/coldQ, 100*(coldCalls-warmCalls)/coldCalls
	t.Logf("%d rates: chained warm starts cost %+.1f%% Σ quota (worst point %+.1f%%) for %.0f%% fewer model calls (%.0f vs %.0f per solve)",
		len(rates), gap, worst, saved, warmCalls/float64(len(rates)), coldCalls/float64(len(rates)))
	if gap < -0.5 {
		t.Errorf("chained warm starts now save %.1f%% quota: revisit the cold start", -gap)
	}
}
