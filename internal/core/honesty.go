package core

import "graf/internal/app"

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

// gridAnswer is one problem of the solver grid: the solver's answer, and its
// p99 in the simulator at each measurement seed.
type gridAnswer struct {
	slo, rate float64
	load      []float64
	sol       Solution
	p99       []float64
}

// answerGrid solves every problem of the solver grid on m and runs each
// answer in the simulator once per measurement seed (SimMeasurer, the p99
// over a 10 s window, seeded per problem from the seed). The problems run in
// parallel, so m must be safe for concurrent use (a gnn.Model is); each is
// seeded by its place in the grid, not by the schedule.
func answerGrid(a *app.App, m LatencyModel, b Bounds, cfg SolverConfig, seeds []int64) []gridAnswer {
	an := NewAnalyzer(a)
	names := a.ServiceNames()
	var grid []gridAnswer
	solverGrid(func(slo, rate float64) {
		grid = append(grid, gridAnswer{slo: slo, rate: rate, load: an.Distribute(a.MixRates(rate))})
	})
	EachParallel(len(grid), func(n int) {
		p := &grid[n]
		p.sol = Solve(m, p.load, p.slo, b.Lo, b.Hi, cfg)
		quotas := make(map[string]float64, len(names))
		for i, q := range p.sol.Quotas {
			quotas[names[i]] = q
		}
		for _, seed := range seeds {
			p.p99 = append(p.p99, NewSimMeasurer(a, seed).measureE2EAt(n, quotas, p.rate))
		}
	})
	return grid
}

// Honesty is m's score on the solver grid (ROADMAP item 15): of the
// measurements answerGrid makes at the given seeds, how many met their SLO,
// and the answers' summed quota in millicores.
func Honesty(a *app.App, m LatencyModel, b Bounds, cfg SolverConfig, seeds ...int64) (met, measured int, quota float64) {
	for _, p := range answerGrid(a, m, b, cfg, seeds) {
		for _, p99 := range p.p99 {
			if p99 <= p.slo {
				met++
			}
		}
		measured += len(p.p99)
		quota += p.sol.TotalQuota
	}
	return met, measured, quota
}
