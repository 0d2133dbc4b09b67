//go:build !race

package obs

const raceEnabled = false
