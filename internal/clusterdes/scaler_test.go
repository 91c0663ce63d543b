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

// TestRunReservesTracesBelowTheFloor pins the trace reserve on an
// elastic fleet. The fleet trace and the trace of every node below the
// scaler's minimum record one sample per interval, so after a one-shot
// run each holds exactly the storage one reserve of the horizon gives
// (slices.Grow rounds it to the allocator's size class): reserved once,
// never regrown. Nodes above the floor join late and are not reserved
// for intervals they never run.
func TestRunReservesTracesBelowTheFloor(t *testing.T) {
	const horizon, floor = 45, 2
	script := scriptPolicy(func(iv int) int {
		if iv >= 10 && iv < 20 {
			return 4
		}
		return floor
	})
	nodes, err := clusterdes.Uniform(4, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := clusterdes.New(clusterdes.Options{
		Nodes:     nodes,
		Pattern:   loadgen.Constant{Frac: 0.5},
		Workers:   1,
		Seed:      7,
		Autoscale: &clusterdes.AutoscaleOptions{Policy: script, MinNodes: floor},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Ups == 0 {
		t.Fatal("the fleet never scaled above its floor")
	}
	reserved := cap(slices.Grow([]telemetry.Sample(nil), horizon))
	for i, tr := range res.Nodes {
		n, c := len(tr.Samples), cap(tr.Samples)
		switch {
		case i < floor && (n != horizon || c != reserved):
			t.Errorf("node %d below the floor: len %d cap %d, want len %d cap %d", i, n, c, horizon, reserved)
		case i >= floor && (n >= horizon || c >= reserved):
			t.Errorf("node %d above the floor: len %d cap %d, want fewer than %d samples in less than the reserve", i, n, c, horizon)
		}
	}
	fleet := res.Fleet.Samples
	if want := cap(slices.Grow([]telemetry.FleetSample(nil), horizon)); len(fleet) != horizon || cap(fleet) != want {
		t.Errorf("fleet trace: len %d cap %d, want len %d cap %d", len(fleet), cap(fleet), horizon, want)
	}
}
