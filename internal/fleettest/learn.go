package fleettest

import "testing"

// AssertLearnedDES runs the full determinism battery over a
// learn-enabled DES builder: worker-invariance and seed-determinism at
// the builder's domain count and at every multi-domain count in
// ShardedDomainCounts. Passing means the in-DES RL loop — per-node policy
// decisions, table updates from measured tails, optional federation
// rounds — is a pure function of (seed, domain count), exactly the
// contract fixed-configuration runs carry.
//
// The builder MUST construct fresh policies on every call (the default
// clusterdes.LearnOptions does): a learn-enabled run mutates its
// policies' RL tables in place, so sharing one policy object between
// two fingerprint runs makes the second run a continuation of the
// first and fails the determinism checks for a reason that has nothing
// to do with the simulator.
func AssertLearnedDES(tb testing.TB, build DESBuildFunc, seed int64, horizon float64) {
	tb.Helper()
	AssertDESWorkerInvariance(tb, build, seed, horizon)
	AssertDESSeedDeterminism(tb, build, seed, horizon)
	AssertShardedDeterminism(tb, build, seed, horizon)
}
