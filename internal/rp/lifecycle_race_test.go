//go:build race

package rp

// lcMaxK is one step shorter under -race: the enumeration starts no
// goroutine, so the detector only slows it (about fivefold), and the
// ordinary build checks the longer sequences.
const lcMaxK = 5
