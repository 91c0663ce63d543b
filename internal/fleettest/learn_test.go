package fleettest_test

import (
	"bytes"
	"testing"

	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/fleettest"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// learnParams shortens the managers' learning phase so a 40 s property
// run crosses the learning→exploitation transition, exercising both
// decision paths of the phase machine.
func learnParams() core.Params {
	p := core.DefaultParams()
	p.LearnSecs = 20
	return p
}

// learningDESFleet is a small DES fleet with the RL loop closed: four
// nodes, each running its own hybrid manager, under a load spike that
// moves the per-node load across quantizer buckets.
func learningDESFleet(seed int64) (clusterdes.Options, error) {
	nodes, err := clusterdes.Uniform(4, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		return clusterdes.Options{}, err
	}
	params := learnParams()
	return clusterdes.Options{
		Nodes:   nodes,
		Pattern: loadgen.Spike{Base: 0.3, Peak: 0.7, EverySecs: 15, SpikeSecs: 5, Horizon: 60},
		Seed:    seed,
		Learn:   &clusterdes.LearnOptions{Params: &params},
	}, nil
}

// learningFederatedDESFleet adds federation and warm-up autoscaling on
// top, so warm-starts, flushes and sync rounds all run inside the
// fingerprinted window.
func learningFederatedDESFleet(seed int64) (clusterdes.Options, error) {
	opts, err := learningDESFleet(seed)
	if err != nil {
		return clusterdes.Options{}, err
	}
	opts.Learn.Federation = &cluster.FederationOptions{SyncEvery: 5}
	opts.Autoscale = &clusterdes.AutoscaleOptions{
		MinNodes:        2,
		WarmupIntervals: 2,
	}
	return opts, nil
}

// TestLearnedDESProperties pins the tentpole invariant: a learn-enabled
// DES run — policy decisions, RL updates from measured tails,
// federation rounds, warm-starts and flushes — is a pure function of
// (seed, domain count) at any worker count.
func TestLearnedDESProperties(t *testing.T) {
	t.Run("learning", func(t *testing.T) {
		t.Parallel()
		fleettest.AssertLearnedDES(t, learningDESFleet, 7, 40)
	})
	t.Run("learning-federated-autoscaled", func(t *testing.T) {
		t.Parallel()
		fleettest.AssertLearnedDES(t, learningFederatedDESFleet, 7, 40)
	})
}

// TestLearnedFingerprintCoversLearning guards the harness itself: the
// fingerprint must distinguish a learn-enabled run from the same fleet
// replaying its fixed starting configuration.
func TestLearnedFingerprintCoversLearning(t *testing.T) {
	opts, err := learningDESFleet(7)
	if err != nil {
		t.Fatal(err)
	}
	a := fleettest.FingerprintDES(t, opts, 40)

	opts, err = learningDESFleet(7)
	if err != nil {
		t.Fatal(err)
	}
	opts.Learn = nil
	b := fleettest.FingerprintDES(t, opts, 40)
	if bytes.Equal(a, b) {
		t.Fatal("fingerprint blind to the learning loop")
	}
}
