package experiments

import (
	"hipster/internal/clusterdes"
	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// FaultToleranceOpts parameterise the fault-injection experiments. The
// zero value selects the defaults below.
type FaultToleranceOpts struct {
	// Horizon is the simulated duration in seconds (default 300).
	Horizon float64
	// SlowSecs is how long the detector race's scripted node stays
	// degraded (default 120).
	SlowSecs int
}

func (o FaultToleranceOpts) withDefaults() FaultToleranceOpts {
	if o.Horizon == 0 {
		o.Horizon = 300
	}
	if o.SlowSecs == 0 {
		o.SlowSecs = 120
	}
	return o
}

// DetectorRaceRow is one mitigation variant of the fail-slow race.
type DetectorRaceRow struct {
	Mitigation string
	// End-to-end request-latency distribution (seconds).
	P50, P99  float64
	Completed int
	// Hedging and migration activity.
	Hedges, HedgeWins int
	PredMigrations    int
	// PredictInterval is the first monitoring interval the predictive
	// detector flagged a suspect (-1 for the reactive variant, which
	// has no such signal).
	PredictInterval int
	// StragglerInterval is the first interval at or after the scripted
	// onset where the REACTIVE tail signal (tail beyond
	// telemetry.DefaultStragglerFactor x the fleet median, over
	// completed-request sojourns) flagged the degraded node itself.
	// Healthy-fleet variance flags isolated stragglers elsewhere
	// throughout any run, so the scan pins the scripted node: the race
	// is about seeing THIS fault. -1 = never observed.
	StragglerInterval int
}

// SoupResult is the background-fault-mix run: every fault class firing
// at once on a fleet with no resilience layer, so crash-destroyed work
// is truly lost and the four-way conservation law
// (completed + dropped + timed out + lost == admitted) is visible in
// the dispositions.
type SoupResult struct {
	Requests, Completed, Dropped, TimedOut, Lost int
	Crashes, Revocations, Partitions             int
	Migrated, WarmStarts                         int
	P99                                          float64
}

// FaultToleranceResult bundles the two fault-injection experiments.
type FaultToleranceResult struct {
	Race []DetectorRaceRow
	Soup SoupResult
}

// FaultTolerance runs the fault-injection experiments behind
// examples/faults.
//
// Both run an 8-node Web-Search fleet at 70% of capacity on
// DefaultSeed: busy enough that a degraded node's backlog grows
// immediately, which is the signal the predictive detector reads.
//
// The detector race serves that fleet twice with node 5 scripted to
// serve at 0.3 of nominal speed from interval 60 for SlowSecs — a
// machine suddenly 3x slower, the fail-slow regime of production
// straggler studies. Moderate degradation is the interesting race: a
// node slowed into the zero-completion regime trips the telemetry's
// capped dead-interval tail immediately, so both signals see it at
// once. One run uses the reactive quantile hedge (re-issue after the
// p95 of recent sojourns), the other the predictive detector (EWMA of
// each node's backlog drain estimate against the fleet median). The
// reactive signal is built from
// completed-request sojourns, so it cannot move until requests served
// at the degraded rate finish and push the node's measured tail past
// the straggler factor — a couple of intervals after onset, during
// which every request routed there queues behind the slowdown. The
// drain estimate grows the moment service slows, before a single
// degraded completion lands. The predictive variant flags the node
// first, migrates its queue, excludes it from hedge targets and hedges
// its requests early, which is what cuts the fleet P99 tail.
//
// The soup run then turns every fault class on at once — crashes
// (rate 0.01), partitions (0.01), revocations (0.05) of a 25% spot
// pool — over a drained horizon, reporting the full disposition ledger
// under the four-way conservation law.
func FaultTolerance(o FaultToleranceOpts) (FaultToleranceResult, error) {
	o = o.withDefaults()
	const slowNode, slowAt = 5, 60
	var out FaultToleranceResult
	for _, mit := range []clusterdes.Mitigation{clusterdes.Hedged{}, clusterdes.Predictive{}} {
		nodes, err := clusterdes.Uniform(8, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return out, err
		}
		fl, err := clusterdes.New(clusterdes.Options{
			Nodes:      nodes,
			Pattern:    loadgen.Constant{Frac: 0.7},
			Mitigation: mit,
			Seed:       DefaultSeed,
			Faults: &faults.Options{Script: []faults.Event{
				{Interval: slowAt, Kind: faults.SlowStart, Node: slowNode, Factor: 0.3},
				{Interval: slowAt + o.SlowSecs, Kind: faults.SlowEnd, Node: slowNode},
			}},
		})
		if err != nil {
			return out, err
		}
		res, err := fl.Run(o.Horizon)
		if err != nil {
			return out, err
		}
		out.Race = append(out.Race, DetectorRaceRow{
			Mitigation:        mit.Name(),
			P50:               res.Latency.P50,
			P99:               res.Latency.P99,
			Completed:         res.Latency.Completed,
			Hedges:            res.Stats.Hedges,
			HedgeWins:         res.Stats.HedgeWins,
			PredMigrations:    res.Stats.PredMigrations,
			PredictInterval:   res.Stats.FirstPredictInterval,
			StragglerInterval: firstNodeStragglerFrom(res, slowNode, slowAt),
		})
	}

	nodes, err := clusterdes.Uniform(8, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		return out, err
	}
	fl, err := clusterdes.New(clusterdes.Options{
		Nodes: nodes,
		// Stop offering load well before the horizon so the run drains
		// and the conservation ledger is exact. No mitigation and no
		// resilience layer: a pending hedge or deadline timer re-issues
		// a crashed node's work, so the bare fleet is the one where
		// crash-destroyed requests are terminally Lost.
		Pattern: stormPattern{peak: 0.7, secs: o.Horizon - 60, span: o.Horizon},
		Seed:    DefaultSeed,
		Faults: &faults.Options{
			CrashRate:     0.01,
			PartitionRate: 0.01,
			SpotFraction:  0.25,
			RevokeRate:    0.05,
		},
	})
	if err != nil {
		return out, err
	}
	res, err := fl.Run(o.Horizon)
	if err != nil {
		return out, err
	}
	out.Soup = SoupResult{
		Requests:    res.Stats.Requests,
		Completed:   res.Latency.Completed,
		Dropped:     res.Latency.Dropped,
		TimedOut:    res.Latency.TimedOut,
		Lost:        res.Latency.Lost,
		Crashes:     res.Stats.Crashes,
		Revocations: res.Stats.Revocations,
		Partitions:  res.Stats.Partitions,
		Migrated:    res.Stats.Migrated,
		WarmStarts:  res.Stats.WarmStarts,
		P99:         res.Latency.P99,
	}
	return out, nil
}

// firstNodeStragglerFrom scans the traces from the given 1-based
// interval for the first interval where the given node crossed the
// straggler criterion the fleet merge applies — its completed-sojourn
// tail beyond DefaultStragglerFactor times the fleet median tail
// (-1 = never observed). This is the reactive signal's view of one
// specific node: a node slow enough to complete nothing in an interval
// contributes no sojourns at all, which is exactly the blindness the
// backlog-based predictor does not share.
func firstNodeStragglerFrom(res clusterdes.Result, node, from int) int {
	for i, s := range res.Fleet.Samples {
		if i+1 < from || i >= len(res.Nodes[node].Samples) {
			continue
		}
		ns := res.Nodes[node].Samples[i]
		if ns.TailLatency > telemetry.DefaultStragglerFactor*s.MedianTail {
			return i + 1
		}
	}
	return -1
}
