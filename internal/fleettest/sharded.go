package fleettest

import (
	"bytes"
	"testing"
)

// ShardedDomainCounts are the multi-domain configurations
// AssertShardedDeterminism checks.
var ShardedDomainCounts = []int{2, 4}

// FingerprintShardedDES fingerprints a run with the builder's options
// and the domain count and worker count pinned. The encoding is
// FingerprintDES's, so fingerprints at different domain counts are
// directly comparable.
func FingerprintShardedDES(tb testing.TB, build DESBuildFunc, seed int64, domains, workers int, horizon float64) []byte {
	tb.Helper()
	opts, err := build(seed)
	if err != nil {
		tb.Fatalf("fleettest: build DES options: %v", err)
	}
	opts.Domains = domains
	opts.Workers = workers
	return FingerprintDES(tb, opts, horizon)
}

// AssertShardedDeterminism checks the determinism contract of
// multi-domain runs: for every count in ShardedDomainCounts that fits
// the builder's roster, the run is bit-identical across WorkerCounts
// (domains may be stepped by any number of workers) and fully
// determined by the seed, with the next seed producing a different run.
// The builder's own domain count is covered by AssertDESWorkerInvariance
// and AssertDESSeedDeterminism.
func AssertShardedDeterminism(tb testing.TB, build DESBuildFunc, seed int64, horizon float64) {
	tb.Helper()
	opts, err := build(seed)
	if err != nil {
		tb.Fatalf("fleettest: build DES options: %v", err)
	}
	roster := len(opts.Nodes)
	for _, d := range ShardedDomainCounts {
		if d > roster {
			continue
		}
		ref := FingerprintShardedDES(tb, build, seed, d, WorkerCounts[0], horizon)
		for _, w := range WorkerCounts[1:] {
			if got := FingerprintShardedDES(tb, build, seed, d, w, horizon); !bytes.Equal(ref, got) {
				tb.Fatalf("fleettest: Domains=%d workers=%d diverged from workers=%d", d, w, WorkerCounts[0])
			}
		}
		again := FingerprintShardedDES(tb, build, seed, d, 4, horizon)
		if twice := FingerprintShardedDES(tb, build, seed, d, 4, horizon); !bytes.Equal(again, twice) {
			tb.Fatalf("fleettest: Domains=%d: same seed produced different runs", d)
		}
		if other := FingerprintShardedDES(tb, build, seed+1, d, 4, horizon); bytes.Equal(again, other) {
			tb.Fatalf("fleettest: Domains=%d: different seeds produced identical runs", d)
		}
	}
}
