package core

import (
	"slices"

	"graf/internal/app"
)

// solverGrid enumerates the (SLO, rate) problems the solver is judged on:
// three SLOs around the repo benchmark's 250 ms, and 14 rates across the
// trained 50–300 req/s.
func solverGrid(each func(slo, rate float64)) {
	for _, slo := range []float64{0.2, 0.25, 0.3} {
		for rate := 50.0; rate <= 300; rate += 19 {
			each(slo, rate)
		}
	}
}

// honestyFaces are the upper edges of the honesty table's bins: an
// answer's distance to the nearest lower face of the search box, as a
// fraction of that service's width of the box.
var honestyFaces = []float64{0.01, 0.05, 0.15, 1}

// HonestyBin is one row of the honesty table: the answers whose distance
// to the nearest lower face is in [From, To) — up to and including To = 1
// in the last bin.
type HonestyBin struct {
	From, To float64
	Answers  int
	MetPct   float64 // % of answers whose measured p99 is at most the SLO
	Ratio    float64 // median of measured over predicted p99
}

// Honesty measures how far the model can be taken at its word where the
// solver lands. It solves every problem of the solver grid on m and runs
// each answer in the simulator (SimMeasurer, the p99 over a 10 s window,
// seeded per problem from seed), then bins the answers by their distance to
// the nearest lower face of b: there the model has seen the fewest samples.
// It also returns the grid's score: how many answers met their SLO, and
// their summed quota in millicores. The problems solve and run in parallel,
// so m must be safe for concurrent use (a gnn.Model is); each is seeded by
// its place in the grid, so the result does not depend on the schedule.
func Honesty(a *app.App, m LatencyModel, b Bounds, cfg SolverConfig, seed int64) (bins []HonestyBin, met int, quota float64) {
	an := NewAnalyzer(a)
	meas := NewSimMeasurer(a, seed)
	names := a.ServiceNames()
	type problem struct {
		slo, rate, p99 float64
		load           []float64
		sol            Solution
	}
	var grid []problem
	solverGrid(func(slo, rate float64) {
		grid = append(grid, problem{slo: slo, rate: rate, load: an.Distribute(a.MixRates(rate))})
	})
	eachParallel(len(grid), func(n int) {
		p := &grid[n]
		p.sol = Solve(m, p.load, p.slo, b.Lo, b.Hi, cfg)
		quotas := make(map[string]float64, len(names))
		for i, q := range p.sol.Quotas {
			quotas[names[i]] = q
		}
		p.p99 = meas.measureE2EAt(n, quotas, p.rate)
	})
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
		if p.p99 <= p.slo {
			metIn[i]++
			met++
		}
		ratios[i] = append(ratios[i], p.p99/p.sol.Predicted)
		quota += p.sol.TotalQuota
	}
	bins = make([]HonestyBin, len(honestyFaces))
	from := 0.0
	for i, to := range honestyFaces {
		bins[i] = HonestyBin{From: from, To: to, Answers: len(ratios[i])}
		from = to
		if k := len(ratios[i]); k > 0 {
			slices.Sort(ratios[i])
			bins[i].MetPct = 100 * float64(metIn[i]) / float64(k)
			bins[i].Ratio = (ratios[i][(k-1)/2] + ratios[i][k/2]) / 2
		}
	}
	return bins, met, quota
}
