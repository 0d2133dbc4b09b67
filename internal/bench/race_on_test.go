//go:build race

package bench

// raceEnabled: under the race detector only the experiments whose runners
// start goroutines of their own run; the rest give it nothing to check.
const raceEnabled = true
