//go:build race

package rpc

// raceEnabled: under the race detector sync.Pool drops items at random and
// instrumentation allocates, so allocation counts are not the program's.
const raceEnabled = true
