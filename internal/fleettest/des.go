package fleettest

import (
	"bytes"
	"encoding/json"
	"testing"

	"hipster/internal/clusterdes"
)

// DESBuildFunc returns cluster-DES options for one run at the given
// seed. The harness overrides Options.Workers; everything else is the
// caller's. Each call must return fresh Options — and, when
// Options.Learn carries a custom BuildPolicy, fresh policies: a
// learn-enabled run mutates its policies' RL tables, so state shared
// between calls leaks one run into the next (see AssertLearnedDES).
type DESBuildFunc func(seed int64) (clusterdes.Options, error)

// FingerprintDES runs the fleet DES to the horizon and renders
// everything it recorded — fleet samples, every node trace, the
// end-to-end latency distribution and the mitigation/scaling stats — to
// bytes, so equality of fingerprints is equality of entire runs.
func FingerprintDES(tb testing.TB, opts clusterdes.Options, horizon float64) []byte {
	tb.Helper()
	fl, err := clusterdes.New(opts)
	if err != nil {
		tb.Fatalf("fleettest: build DES fleet: %v", err)
	}
	res, err := fl.Run(horizon)
	if err != nil {
		tb.Fatalf("fleettest: run DES fleet: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(res.Fleet.Samples); err != nil {
		tb.Fatalf("fleettest: encode fleet trace: %v", err)
	}
	for i, tr := range res.Nodes {
		if err := enc.Encode(tr.Samples); err != nil {
			tb.Fatalf("fleettest: encode node %d trace: %v", i, err)
		}
	}
	if err := enc.Encode(res.Latency); err != nil {
		tb.Fatalf("fleettest: encode latency summary: %v", err)
	}
	if err := enc.Encode(res.Stats); err != nil {
		tb.Fatalf("fleettest: encode stats: %v", err)
	}
	return buf.Bytes()
}

// AssertDESConservation runs the fleet DES to the horizon and checks
// the request conservation law: every primary request the fleet
// admitted is accounted for exactly once — as a completion, a drop, a
// terminal timeout (retry budget exhausted), or a loss to an injected
// node crash. The caller's pattern must stop offering load early
// enough before the horizon for the run to drain (queues empty,
// retries resolved); on a drained run the law is exact, so any leak or
// double count fails. Returns the result for further assertions.
func AssertDESConservation(tb testing.TB, opts clusterdes.Options, horizon float64) clusterdes.Result {
	tb.Helper()
	fl, err := clusterdes.New(opts)
	if err != nil {
		tb.Fatalf("fleettest: build DES fleet: %v", err)
	}
	res, err := fl.Run(horizon)
	if err != nil {
		tb.Fatalf("fleettest: run DES fleet: %v", err)
	}
	if res.Stats.Requests == 0 {
		tb.Fatal("fleettest: run admitted no requests")
	}
	lat := res.Latency
	if got := lat.Completed + lat.Dropped + lat.TimedOut + lat.Lost; got != res.Stats.Requests {
		tb.Fatalf("fleettest: conservation violated: %d completed + %d dropped + %d timed out + %d lost != %d requests",
			lat.Completed, lat.Dropped, lat.TimedOut, lat.Lost, res.Stats.Requests)
	}
	return res
}

func fingerprintDESAt(tb testing.TB, build DESBuildFunc, seed int64, workers int, horizon float64) []byte {
	tb.Helper()
	opts, err := build(seed)
	if err != nil {
		tb.Fatalf("fleettest: build DES options: %v", err)
	}
	opts.Workers = workers
	return FingerprintDES(tb, opts, horizon)
}

// AssertDESWorkerInvariance checks that a DES run's every recorded
// field is bit-identical across WorkerCounts: the domain steps and the
// interval-summary fan-out may be parallelised arbitrarily without
// changing results, because every routing/hedging/stealing decision
// happens in a domain's deterministically-ordered event loop or in the
// coordinator's serial section.
func AssertDESWorkerInvariance(tb testing.TB, build DESBuildFunc, seed int64, horizon float64) {
	tb.Helper()
	ref := fingerprintDESAt(tb, build, seed, WorkerCounts[0], horizon)
	for _, w := range WorkerCounts[1:] {
		if got := fingerprintDESAt(tb, build, seed, w, horizon); !bytes.Equal(ref, got) {
			tb.Fatalf("fleettest: DES workers=%d diverged from workers=%d", w, WorkerCounts[0])
		}
	}
}

// AssertDESSeedDeterminism checks that the seed fully determines a DES
// run, and actually matters: the next seed produces a different run.
func AssertDESSeedDeterminism(tb testing.TB, build DESBuildFunc, seed int64, horizon float64) {
	tb.Helper()
	const workers = 4
	a := fingerprintDESAt(tb, build, seed, workers, horizon)
	b := fingerprintDESAt(tb, build, seed, workers, horizon)
	if !bytes.Equal(a, b) {
		tb.Fatal("fleettest: same seed produced different DES runs")
	}
	c := fingerprintDESAt(tb, build, seed+1, workers, horizon)
	if bytes.Equal(a, c) {
		tb.Fatal("fleettest: different seeds produced identical DES runs")
	}
}
