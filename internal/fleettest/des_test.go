package fleettest_test

import (
	"bytes"
	"testing"

	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/fleettest"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// tinyDESFleet is a small hedged DES fleet; hedging exercises the
// cross-node event paths the harness must fingerprint, and the
// heterogeneous node configurations make the choice of splitter
// observable (round-robin and capacity-weighted would split a uniform
// fleet identically).
func tinyDESFleet(seed int64) (clusterdes.Options, error) {
	nodes, err := clusterdes.Uniform(3, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		return clusterdes.Options{}, err
	}
	small := platform.Config{NSmall: 4}
	nodes[2].Config = &small
	return clusterdes.Options{
		Nodes:      nodes,
		Pattern:    loadgen.Constant{Frac: 0.6},
		Mitigation: clusterdes.Hedged{},
		Seed:       seed,
	}, nil
}

func TestDESHarnessProperties(t *testing.T) {
	fleettest.AssertDESWorkerInvariance(t, tinyDESFleet, 11, 30)
	fleettest.AssertDESSeedDeterminism(t, tinyDESFleet, 11, 30)
}

// stopAt offers a constant load fraction until Until, then nothing —
// the drained tail AssertDESConservation needs for the law to be
// exact.
type stopAt struct {
	frac  float64
	until float64
}

func (p stopAt) LoadAt(t float64) float64 {
	if t < p.until {
		return p.frac
	}
	return 0
}

func (p stopAt) Duration() float64 { return 0 }

// TestDESConservation exercises the conservation assertion on drained
// overloaded runs with retries and deadlines on, so all three
// dispositions (completed, dropped, timed out) are populated. The
// second case steals across two domains: every queued request holds
// its deadline's reference, so an idle node's boundary kick must leave
// another domain's queue alone.
func TestDESConservation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nodes   int
		mit     clusterdes.Mitigation
		domains int
		seed    int64
		timeout float64
	}{
		{"resilience", 3, nil, 0, 11, 0.3},
		{"boundary-steals", 4, clusterdes.WorkStealing{}, 2, 3, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, err := clusterdes.Uniform(tc.nodes, platform.JunoR1(), workload.WebSearch())
			if err != nil {
				t.Fatal(err)
			}
			res := fleettest.AssertDESConservation(t, clusterdes.Options{
				Nodes:      nodes,
				Pattern:    stopAt{frac: 1.3, until: 20},
				Mitigation: tc.mit,
				Domains:    tc.domains,
				Seed:       tc.seed,
				Resilience: &resilience.Options{
					MaxRetries: 2,
					Timeout:    tc.timeout,
					Backoff:    resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
				},
			}, 40)
			if res.Stats.Timeouts == 0 || res.Stats.Retries == 0 {
				t.Fatalf("overloaded run exercised no deadlines/retries: %+v", res.Stats)
			}
			if tc.mit != nil && res.Stats.Steals == 0 {
				t.Fatalf("work-stealing run stole nothing: %+v", res.Stats)
			}
		})
	}
}

// TestDESFingerprintCoversRouting guards the DES harness itself: the
// fingerprint must change when only the routing differs on the same
// seed and demand.
func TestDESFingerprintCoversRouting(t *testing.T) {
	opts, err := tinyDESFleet(11)
	if err != nil {
		t.Fatal(err)
	}
	a := fleettest.FingerprintDES(t, opts, 30)
	if len(a) == 0 {
		t.Fatal("empty fingerprint")
	}

	opts, err = tinyDESFleet(11)
	if err != nil {
		t.Fatal(err)
	}
	opts.Splitter = cluster.RoundRobin{}
	b := fleettest.FingerprintDES(t, opts, 30)
	if bytes.Equal(a, b) {
		t.Fatal("fingerprint blind to the per-request routing")
	}
}
