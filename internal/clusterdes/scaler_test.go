package clusterdes_test

import (
	"slices"
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// scriptPolicy proposes the active count its script gives for the
// interval, ignoring the fleet.
type scriptPolicy func(interval int) int

func (scriptPolicy) Name() string { return "script" }

func (p scriptPolicy) Desired(ctx autoscale.Context) int { return p(ctx.Interval) }

// TestBothFleetsRunOneScaleProtocol drives a 4-node interval cluster
// and a 4-node DES with one scripted policy and no federation. Both
// run their scale events through cluster.Scaler, so the scaling
// counters and the per-interval fleet sizes must agree.
func TestBothFleetsRunOneScaleProtocol(t *testing.T) {
	const horizon = 45
	// The DES first decides at the boundary that closes interval 0, so
	// the script already asks for the initial size at interval 0 and
	// the interval cluster does not move there. The rest exercises an
	// immediate scale-up, a hysteresis-delayed scale-down, and a
	// scale-down held back by the cooldown.
	script := scriptPolicy(func(iv int) int {
		switch {
		case iv < 8:
			return 2
		case iv < 16:
			return 4
		case iv < 30:
			return 1
		case iv == 30:
			return 3
		}
		return 2
	})
	spec, wl := platform.JunoR1(), workload.WebSearch()
	pattern := loadgen.Constant{Frac: 0.5}

	ivNodes, err := cluster.Uniform(4, spec, wl, func(int) (policy.Policy, error) {
		return policy.NewStaticBig(spec), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Options{
		Nodes:     ivNodes,
		Pattern:   pattern,
		Workers:   1,
		Seed:      7,
		Autoscale: &cluster.AutoscaleOptions{Policy: script, InitialNodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ivRes, err := cl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	ivStats, _ := cl.AutoscaleStats()

	desNodes, err := clusterdes.Uniform(4, spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := clusterdes.New(clusterdes.Options{
		Nodes:     desNodes,
		Pattern:   pattern,
		Workers:   1,
		Seed:      7,
		Autoscale: &clusterdes.AutoscaleOptions{Policy: script, InitialNodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	desRes, err := fl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}

	// Up at 8 (+2), down at 18 after three intervals of wanting 1 (-3),
	// up at 30 (+2), and down at 35, once the cooldown since 30 ends (-1).
	want := autoscale.Stats{Ups: 2, Downs: 2, NodesAdded: 4, NodesRemoved: 4, PeakActive: 4, MinActive: 1}
	des := desRes.Stats
	got := autoscale.Stats{Ups: des.Ups, Downs: des.Downs, NodesAdded: des.NodesAdded,
		NodesRemoved: des.NodesRemoved, PeakActive: des.PeakActive, MinActive: des.MinActive}
	if got != want {
		t.Errorf("DES scaling counters %+v, want %+v", got, want)
	}
	ivStats.NodeIntervals = 0
	if ivStats != want {
		t.Errorf("interval scaling counters %+v, want %+v", ivStats, want)
	}

	ivSizes, desSizes := fleetSizes(ivRes.Fleet), fleetSizes(desRes.Fleet)
	if !slices.Equal(ivSizes, desSizes) {
		t.Errorf("per-interval fleet sizes differ:\ninterval %v\nDES      %v", ivSizes, desSizes)
	}
}

// fleetSizes returns the active node count of every fleet sample.
func fleetSizes(tr *telemetry.FleetTrace) []int {
	sizes := make([]int, tr.Len())
	for i, s := range tr.Samples {
		sizes[i] = s.Nodes
	}
	return sizes
}
