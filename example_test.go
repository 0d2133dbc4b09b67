package graf_test

import (
	"fmt"
	"time"

	"graf"
)

// Example is the quickstart of README.md and of the package documentation:
// train a model offline, solve once, then let the controller run a simulated
// cluster. It has no Output line, so go test compiles it and never runs it.
func Example() {
	a := graf.OnlineBoutique()
	slo := 250 * time.Millisecond

	// Offline: Algorithm 1 search-space reduction, state-aware sample
	// collection, GNN training (§3.7, §5).
	trained := graf.Train(a, graf.TrainOptions{
		SLO: slo, MinRate: 40, MaxRate: 320,
	})

	// One-shot: minimal CPU quotas for 150 rps under the SLO (§3.5).
	load := graf.DistributeWorkload(a, a.MixRates(150))
	sol := graf.Solve(trained, load, slo)
	fmt.Println(sol.Quotas, sol.Predicted)

	// Online: the proactive controller on a simulated cluster (§3.8).
	s := graf.NewSimulation(a, 1)
	ctl, err := s.StartGRAF(trained, slo)
	if err != nil {
		panic(err)
	}
	gen := s.OpenLoop(graf.ConstRate(150))
	gen.Start()
	s.RunFor(10 * time.Minute)
	fmt.Println(s.Cluster.TotalInstances(), s.P99(time.Minute))
	gen.Stop()
	ctl.Stop()
}
