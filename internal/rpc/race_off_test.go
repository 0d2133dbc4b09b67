//go:build !race

package rpc

const raceEnabled = false
