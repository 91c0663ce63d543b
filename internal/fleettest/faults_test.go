package fleettest_test

import (
	"bytes"
	"testing"

	"hipster/internal/clusterdes"
	"hipster/internal/faults"
	"hipster/internal/fleettest"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// faultVariants is the per-class fault matrix the invariance properties
// run over: each class alone, then the soup. Rates are tuned so a 40 s
// run on a five-node roster reliably draws several events of the class.
var faultVariants = []struct {
	name string
	opts faults.Options
}{
	{"crash", faults.Options{CrashRate: 0.06, DownIntervals: 4}},
	{"slow", faults.Options{SlowRate: 0.08, SlowFactor: 0.4}},
	{"partition", faults.Options{PartitionRate: 0.1, PartitionIntervals: 6}},
	{"spot", faults.Options{SpotFraction: 0.4, RevokeRate: 0.15, SpotNotice: 2, DownIntervals: 4}},
	{"soup", faults.Options{
		CrashRate: 0.03, SlowRate: 0.04, PartitionRate: 0.05,
		SpotFraction: 0.4, RevokeRate: 0.08, DownIntervals: 4, PartitionIntervals: 5,
	}},
}

// faultyDESFleet wraps a five-node hedged fleet with the resilience
// layer on — retries and deadlines interleave with crash-induced
// losses, the composition most likely to break determinism — and the
// given fault schedule injected.
func faultyDESFleet(fo faults.Options, mit clusterdes.Mitigation) fleettest.DESBuildFunc {
	return func(seed int64) (clusterdes.Options, error) {
		nodes, err := clusterdes.Uniform(5, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return clusterdes.Options{}, err
		}
		fo := fo
		return clusterdes.Options{
			Nodes:      nodes,
			Pattern:    loadgen.Constant{Frac: 0.6},
			Mitigation: mit,
			Seed:       seed,
			Resilience: &resilience.Options{
				MaxRetries: 2,
				Timeout:    0.4,
				Backoff:    resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
			},
			Faults: &fo,
		}, nil
	}
}

// TestFaultyDESProperties runs the full property suite — worker
// invariance and seed determinism at one and at several domains — over
// every fault class and the soup:
// fault transitions fire in the coordinator's serial section, so a
// fault-enabled run must stay a pure function of (seed, domains).
func TestFaultyDESProperties(t *testing.T) {
	for _, v := range faultVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			fleettest.AssertLearnedDES(t, faultyDESFleet(v.opts, clusterdes.Hedged{}), 11, 40)
		})
	}
}

// TestPredictiveDESProperties pins the predictive mitigation's
// determinism: the EWMA detector, suspect-aware hedging and predictive
// drain migrations all run at boundaries, so a predictive run under
// injected slow nodes and crashes obeys the same invariants.
func TestPredictiveDESProperties(t *testing.T) {
	fo := faults.Options{SlowRate: 0.08, SlowFactor: 0.3, CrashRate: 0.02, DownIntervals: 4}
	fleettest.AssertLearnedDES(t, faultyDESFleet(fo, clusterdes.Predictive{}), 11, 40)
}

// TestFaultyLearnedDESProperties is the deepest cell of the matrix:
// faults × resilience × hedging × autoscaling × learning × federation,
// at domains 0, 1, 2 and 4. Crashes destroy per-node policy episodes,
// revocations migrate work off draining nodes, partitions gate sync
// rounds, and the heal flushes accumulated deltas — all of it must
// replay bit-identically at any worker count.
func TestFaultyLearnedDESProperties(t *testing.T) {
	build := func(seed int64) (clusterdes.Options, error) {
		opts, err := learningFederatedDESFleet(seed)
		if err != nil {
			return clusterdes.Options{}, err
		}
		opts.Mitigation = clusterdes.Hedged{}
		opts.Resilience = &resilience.Options{
			MaxRetries: 1,
			Timeout:    0.4,
			Backoff:    resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
		}
		opts.Faults = &faults.Options{
			CrashRate: 0.03, SlowRate: 0.04, PartitionRate: 0.05,
			DownIntervals: 4, PartitionIntervals: 5,
		}
		return opts, nil
	}
	fleettest.AssertLearnedDES(t, build, 7, 40)
}

// TestFaultFingerprintCoversFaults guards the harness: every fault
// class must be visible in the fingerprint (a schedule that injected
// faults without changing any recorded field would make the whole
// matrix vacuous), and faults-off must reproduce the pre-fault fleet.
func TestFaultFingerprintCoversFaults(t *testing.T) {
	base, err := faultyDESFleet(faults.Options{}, clusterdes.Hedged{})(11)
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = nil
	healthy := fleettest.FingerprintDES(t, base, 40)
	for _, v := range faultVariants {
		opts, err := faultyDESFleet(v.opts, clusterdes.Hedged{})(11)
		if err != nil {
			t.Fatal(err)
		}
		if got := fleettest.FingerprintDES(t, opts, 40); bytes.Equal(healthy, got) {
			t.Errorf("fingerprint blind to %s faults", v.name)
		}
	}
}

// TestFaultyDESConservation pins the four-way conservation law on a
// drained overloaded run with scripted crashes and a spot revocation:
// the crashes land mid-overload so queues are full when the node dies,
// the revocation drains by migration, and every admitted request still
// resolves exactly once. Two regimes: a bare fleet truly loses the
// destroyed work (Lost > 0), while request deadlines rescue it — every
// discarded copy has a pending deadline timer that re-issues or times
// it out, so Lost stays zero and the failure surfaces as retries and
// terminal timeouts instead.
func TestFaultyDESConservation(t *testing.T) {
	script := &faults.Options{Script: []faults.Event{
		{Interval: 5, Kind: faults.Crash, Node: 1},
		{Interval: 8, Kind: faults.RevokeNotice, Node: 3},
		{Interval: 10, Kind: faults.Revoke, Node: 3},
		{Interval: 12, Kind: faults.Recover, Node: 1},
		{Interval: 16, Kind: faults.Restore, Node: 3},
	}}
	run := func(t *testing.T, res *resilience.Options) clusterdes.Result {
		nodes, err := clusterdes.Uniform(4, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			t.Fatal(err)
		}
		r := fleettest.AssertDESConservation(t, clusterdes.Options{
			Nodes:      nodes,
			Pattern:    stopAt{frac: 1.3, until: 20},
			Seed:       11,
			Resilience: res,
			Faults:     script,
		}, 40)
		if r.Stats.Crashes != 1 || r.Stats.Revocations != 1 {
			t.Fatalf("script did not fire: %+v", r.Stats)
		}
		return r
	}
	t.Run("lost", func(t *testing.T) {
		res := run(t, nil)
		if res.Latency.Lost == 0 {
			t.Fatal("mid-overload crash destroyed no work")
		}
		if res.Latency.Lost != res.Stats.Lost {
			t.Fatalf("lost accounting split: latency %d vs stats %d", res.Latency.Lost, res.Stats.Lost)
		}
	})
	t.Run("deadlines-rescue", func(t *testing.T) {
		res := run(t, &resilience.Options{
			MaxRetries: 2,
			Timeout:    0.3,
			Backoff:    resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
		})
		if res.Latency.Lost != 0 {
			t.Fatalf("deadline timers should rescue crashed work, lost %d", res.Latency.Lost)
		}
		if res.Stats.Timeouts == 0 || res.Stats.Retries == 0 {
			t.Fatalf("crash under deadlines exercised no retries: %+v", res.Stats)
		}
	})
}

// TestFaultyShardedConservation repeats the drained-crash law at two
// domains: cross-domain copies destroyed by a crash go through the
// coordinator's both-copies-gone protocol, which only runs with
// several domains create.
func TestFaultyShardedConservation(t *testing.T) {
	nodes, err := clusterdes.Uniform(4, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	res := fleettest.AssertDESConservation(t, clusterdes.Options{
		Nodes:      nodes,
		Pattern:    stopAt{frac: 1.3, until: 20},
		Seed:       11,
		Domains:    2,
		Mitigation: clusterdes.Hedged{},
		Faults: &faults.Options{Script: []faults.Event{
			{Interval: 5, Kind: faults.Crash, Node: 1},
			{Interval: 7, Kind: faults.Crash, Node: 2},
			{Interval: 12, Kind: faults.Recover, Node: 1},
			{Interval: 14, Kind: faults.Recover, Node: 2},
		}},
	}, 40)
	if res.Stats.Crashes != 2 {
		t.Fatalf("script did not fire: %+v", res.Stats)
	}
	if res.Latency.Lost == 0 {
		t.Fatal("mid-overload crashes destroyed no work")
	}
}
