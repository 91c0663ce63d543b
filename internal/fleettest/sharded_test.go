package fleettest_test

import (
	"bytes"
	"testing"

	"hipster/internal/fleettest"
)

// TestShardedHarnessProperties runs the multi-domain determinism check
// on the tiny hedged DES fleet: multi-domain runs worker-invariant and
// seed-determined.
func TestShardedHarnessProperties(t *testing.T) {
	fleettest.AssertShardedDeterminism(t, tinyDESFleet, 11, 30)
}

// TestShardedFingerprintCoversDomains guards the harness itself: the
// domain count changes which RNG stream serves each node and when
// cross-domain effects land, so fingerprints at different domain
// counts on the same seed must differ — a harness blind to the domain
// count would vacuously pass every equivalence check.
func TestShardedFingerprintCoversDomains(t *testing.T) {
	one := fleettest.FingerprintShardedDES(t, tinyDESFleet, 11, 1, 2, 30)
	two := fleettest.FingerprintShardedDES(t, tinyDESFleet, 11, 2, 2, 30)
	if len(one) == 0 || len(two) == 0 {
		t.Fatal("empty sharded fingerprint")
	}
	if bytes.Equal(one, two) {
		t.Fatal("fingerprint blind to the domain count")
	}
}
