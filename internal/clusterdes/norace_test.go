//go:build !race

package clusterdes

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
