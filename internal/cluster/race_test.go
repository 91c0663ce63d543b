//go:build race

package cluster

// raceEnabled reports a race-detector build, whose instrumented code
// allocates differently, so allocation counts from it say nothing
// about the normal build.
const raceEnabled = true
