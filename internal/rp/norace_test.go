//go:build !race

package rp_test

const raceEnabled = false
