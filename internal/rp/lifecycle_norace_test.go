//go:build !race

package rp

// lcMaxK is the length of the observation sequences TestLifecycleExhaustive
// enumerates: every sequence up to it, in every configuration. 6 runs in
// about 2 s; each step more multiplies that by ten.
const lcMaxK = 6
