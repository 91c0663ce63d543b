//go:build race

package clusterdes

// raceEnabled reports a race-detector build, whose instrumented code
// allocates differently: slices.Grow, for one, allocates its scratch
// slice as well as the grown one.
const raceEnabled = true
