//go:build race

package rp_test

// raceEnabled reports a -race build: tests that spawn hundreds of thousands
// of goroutines scale down there, where each costs the detector memory.
const raceEnabled = true
