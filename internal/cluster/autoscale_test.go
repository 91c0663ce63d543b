package cluster

import (
	"math"
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

// staticFleet builds n identical static-big nodes (no learning), cheap
// enough for scaling-behaviour tests.
func staticFleet(t testing.TB, n int) []NodeOptions {
	t.Helper()
	spec := platform.JunoR1()
	nodes, err := Uniform(n, spec, workload.Memcached(), func(int) (policy.Policy, error) {
		return policy.NewStaticBig(spec), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestAutoscaleElasticFleet(t *testing.T) {
	const horizon = 240
	cl, err := New(Options{
		Nodes: staticFleet(t, 8),
		// Four 15 s bursts to 85% of fleet capacity over a 25% base.
		Pattern: loadgen.Spike{Base: 0.25, Peak: 0.85, EverySecs: 60, SpikeSecs: 15, Horizon: horizon},
		Workers: 8,
		Seed:    42,
		Autoscale: &AutoscaleOptions{
			Policy:             autoscale.TargetUtilization{Target: 0.7},
			MinNodes:           2,
			CooldownIntervals:  3,
			DownAfterIntervals: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}

	st, ok := cl.AutoscaleStats()
	if !ok {
		t.Fatal("autoscale stats missing")
	}
	if st.Ups == 0 || st.Downs == 0 {
		t.Fatalf("no elasticity: %+v", st)
	}
	if st.PeakActive <= st.MinActive {
		t.Fatalf("active count never moved: %+v", st)
	}
	if st.MinActive < 2 || st.PeakActive > 8 {
		t.Fatalf("bounds violated: %+v", st)
	}
	if st.NodeIntervals >= 8*horizon {
		t.Fatalf("elastic fleet consumed %d node-intervals, static would use %d", st.NodeIntervals, 8*horizon)
	}
	if got := res.Fleet.NodeIntervals(); got != st.NodeIntervals {
		t.Fatalf("trace node-intervals %d != stats %d", got, st.NodeIntervals)
	}
	sum := res.Summarize()
	if sum.NodeIntervals != st.NodeIntervals || sum.Nodes != st.PeakActive {
		t.Fatalf("summary %+v inconsistent with stats %+v", sum, st)
	}

	// The fleet timestamp is the fleet clock's, even though nodes
	// activated mid-run carry lagged local clocks.
	for i, s := range res.Fleet.Samples {
		if s.T != float64(i+1) {
			t.Fatalf("interval %d stamped T=%v", i, s.T)
		}
		if s.Nodes < 2 || s.Nodes > 8 {
			t.Fatalf("interval %d ran %d nodes", i, s.Nodes)
		}
	}

	// Node 0 is always on; the highest-ID node only runs during bursts.
	if got := res.Nodes[0].Len(); got != horizon {
		t.Fatalf("node 0 recorded %d intervals, want %d", got, horizon)
	}
	if got := res.Nodes[7].Len(); got == 0 || got >= horizon {
		t.Fatalf("node 7 recorded %d intervals, want burst-only activity", got)
	}

	// Energy is conserved across scale-downs: the fleet cumulative must
	// equal the sum of every node's own cumulative energy (including
	// nodes asleep at run end) and never decrease.
	var nodeEnergy float64
	for _, tr := range res.Nodes {
		if tr.Len() > 0 {
			nodeEnergy += tr.Samples[tr.Len()-1].EnergyJ
		}
	}
	if got := res.Fleet.TotalEnergyJ(); math.Abs(got-nodeEnergy) > 1e-9*nodeEnergy {
		t.Fatalf("fleet cumulative energy %v != node total %v: sleeping nodes' joules forgotten", got, nodeEnergy)
	}
	for i := 1; i < res.Fleet.Len(); i++ {
		if res.Fleet.Samples[i].EnergyJ < res.Fleet.Samples[i-1].EnergyJ {
			t.Fatalf("cumulative fleet energy decreased at interval %d", i)
		}
	}
}

// scriptedScale activates a fixed count per interval, making scale
// events land on exact intervals for the federation interplay tests.
type scriptedScale struct {
	script func(interval int) int
}

func (scriptedScale) Name() string                        { return "scripted" }
func (s scriptedScale) Desired(ctx autoscale.Context) int { return s.script(ctx.Interval) }

func TestAutoscaleFederationWarmStartAndFlush(t *testing.T) {
	spec := platform.JunoR1()
	var mgrs []*core.Manager
	var defs []NodeOptions
	for i := 0; i < 3; i++ {
		m, err := core.New(core.In, spec, core.DefaultParams(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		mgrs = append(mgrs, m)
		defs = append(defs, NodeOptions{Spec: spec, Workload: workload.Memcached(), Policy: m})
	}
	// Node 2 joins at interval 6 and leaves at interval 10. The
	// staleness bound K=4 is tighter than node 2's 6-interval sleep:
	// the warm start must reset its staleness clock, or the fresh
	// learning it reports at the interval-8 sync would be aged across
	// the sleep and wrongly discarded (StaleDropped below pins this).
	cl, err := New(Options{
		Nodes:      defs,
		Pattern:    loadgen.Constant{Frac: 0.5},
		Seed:       7,
		Federation: &FederationOptions{SyncEvery: 4, StalenessIntervals: 4},
		Autoscale: &AutoscaleOptions{
			Policy: scriptedScale{script: func(i int) int {
				if i >= 6 && i < 10 {
					return 3
				}
				return 2
			}},
			MinNodes:           2,
			InitialNodes:       2,
			CooldownIntervals:  1,
			DownAfterIntervals: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 6; i++ {
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Two sleeping intervals in: node 2 has learned nothing yet, the
	// coordinator holds the sync-round-4 fleet table.
	sleeping := mgrs[2].LiveTable().VisitsSnapshot()
	for _, row := range sleeping {
		for _, v := range row {
			if v != 0 {
				t.Fatal("sleeping node accumulated visits before activation")
			}
		}
	}
	bc := cl.fed.coord.Table()
	var fleetVisits int
	for _, row := range bc.Visits {
		for _, v := range row {
			fleetVisits += v
		}
	}
	if fleetVisits == 0 {
		t.Fatal("no fleet experience before the activation under test")
	}

	// Interval 6 activates node 2 with a warm start.
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	got := mgrs[2].LiveTable().VisitsSnapshot()
	var gotVisits int
	for s, row := range got {
		for a, v := range row {
			gotVisits += v
			if v < bc.Visits[s][a] {
				t.Fatalf("cell (%d,%d): joining node has %d visits, fleet table had %d", s, a, v, bc.Visits[s][a])
			}
		}
	}
	// The joining node holds the fleet table plus at most its own first
	// interval of learning.
	if gotVisits < fleetVisits || gotVisits > fleetVisits+1 {
		t.Fatalf("joining node visits %d, want fleet table's %d (+<=1)", gotVisits, fleetVisits)
	}

	for cl.clock.Steps() < 12 {
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}

	st, ok := cl.AutoscaleStats()
	if !ok {
		t.Fatal("autoscale stats missing")
	}
	if st.WarmStarts != 1 || st.Flushes != 1 {
		t.Fatalf("warm starts / flushes = %d / %d, want 1 / 1", st.WarmStarts, st.Flushes)
	}
	if st.Ups != 1 || st.Downs != 1 || st.NodesAdded != 1 || st.NodesRemoved != 1 {
		t.Fatalf("scale events %+v, want exactly one up and one down", st)
	}
	// 12 intervals: nodes 0-1 always on, node 2 on for intervals 6-9.
	if st.NodeIntervals != 2*12+4 {
		t.Fatalf("node-intervals = %d, want 28", st.NodeIntervals)
	}

	// Federation rounds: scheduled syncs after intervals 4 (2 reports,
	// node 2 asleep), 8 (3 reports) and 12 (2 reports), plus node 2's
	// departure flush at interval 10 (1 report).
	fst, ok := cl.FederationStats()
	if !ok {
		t.Fatal("federation stats missing")
	}
	if fst.Rounds != 4 {
		t.Fatalf("federation rounds = %d, want 3 scheduled + 1 flush", fst.Rounds)
	}
	if fst.Reports != 8 {
		t.Fatalf("federation reports = %d, want 8", fst.Reports)
	}
	if fst.StaleDropped != 0 {
		t.Fatalf("stale discards = %d, want 0 (warm start must reset the staleness clock)", fst.StaleDropped)
	}
}

// burstThenQuiet overloads the fleet for the first five intervals and
// then drops to light load.
type burstThenQuiet struct{}

func (burstThenQuiet) LoadAt(t float64) float64 {
	if t < 5 {
		return 1.4
	}
	return 0.3
}
func (burstThenQuiet) Duration() float64 { return 0 }

// TestAutoscaleDeactivationDropsBacklog pins the power-off semantics: a
// node retired while still draining an overload backlog abandons that
// queue, so rejoining the fleet later does not replay a phantom latency
// spike from work that no longer exists.
func TestAutoscaleDeactivationDropsBacklog(t *testing.T) {
	cl, err := New(Options{
		Nodes:   staticFleet(t, 2),
		Pattern: burstThenQuiet{},
		Seed:    3,
		Autoscale: &AutoscaleOptions{
			// Both nodes serve the overload, node 1 is retired into the
			// quiet phase (backlog still non-zero), then rejoins.
			Policy: scriptedScale{script: func(i int) int {
				if i >= 5 && i < 9 {
					return 1
				}
				return 2
			}},
			CooldownIntervals:  1,
			DownAfterIntervals: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tr := cl.NodeTrace(1)
	// Intervals 0-4 active (overloaded), then a gap, then rejoin at 9:
	// samples 0-4 are the burst, sample 5 is the first post-rejoin one.
	if tr.Len() != 5+3 {
		t.Fatalf("node 1 recorded %d intervals, want 8", tr.Len())
	}
	if tr.Samples[4].Backlog == 0 {
		t.Fatal("overload built no backlog; the scenario lost its premise")
	}
	rejoin := tr.Samples[5]
	if rejoin.Backlog != 0 {
		t.Fatalf("rejoined node still carries %v backlog from before its deactivation", rejoin.Backlog)
	}
	if !rejoin.QoSMet() {
		t.Fatalf("rejoined node violated QoS at light load (tail %v vs target %v): stale backlog replayed",
			rejoin.TailLatency, rejoin.Target)
	}
}

func TestAutoscaleColdStartWithoutFederation(t *testing.T) {
	cl, err := New(Options{
		Nodes:   staticFleet(t, 4),
		Pattern: loadgen.Spike{Base: 0.2, Peak: 0.9, EverySecs: 30, SpikeSecs: 10, Horizon: 60},
		Seed:    1,
		Autoscale: &AutoscaleOptions{
			CooldownIntervals:  2,
			DownAfterIntervals: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(60); err != nil {
		t.Fatal(err)
	}
	st, ok := cl.AutoscaleStats()
	if !ok {
		t.Fatal("autoscale stats missing")
	}
	if st.WarmStarts != 0 || st.Flushes != 0 {
		t.Fatalf("federation-less fleet reported warm starts %d / flushes %d", st.WarmStarts, st.Flushes)
	}
	if st.Ups == 0 {
		t.Fatal("burst never scaled the fleet up")
	}
}

func TestAutoscaleValidation(t *testing.T) {
	pattern := loadgen.Constant{Frac: 0.5}
	cases := []AutoscaleOptions{
		{MaxNodes: 5},                  // beyond the 4-node roster
		{MinNodes: 3, MaxNodes: 2},     // inverted bounds
		{MinNodes: -1},                 // negative min
		{InitialNodes: 4, MaxNodes: 2}, // initial outside bounds
		{CooldownIntervals: -1},
		{DownAfterIntervals: -1},
		{WarmupIntervals: 1}, // warm-up is modelled only by the DES
		{WarmupFactor: 0.5},
	}
	for i, as := range cases {
		opts := as
		if _, err := New(Options{Nodes: staticFleet(t, 4), Pattern: pattern, Autoscale: &opts}); err == nil {
			t.Errorf("case %d: autoscale options %+v accepted", i, as)
		}
	}

	// Disabled: full roster active, no stats.
	cl, err := New(Options{Nodes: staticFleet(t, 4), Pattern: pattern})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, ok := cl.AutoscaleStats(); ok {
		t.Fatal("stats reported without autoscaling")
	}
	if cl.ActiveNodes() != 4 {
		t.Fatalf("ActiveNodes() = %d, want the full roster", cl.ActiveNodes())
	}

	// Enabled: the initial active set is MinNodes.
	cl, err = New(Options{
		Nodes:     staticFleet(t, 4),
		Pattern:   pattern,
		Autoscale: &AutoscaleOptions{MinNodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.ActiveNodes() != 2 {
		t.Fatalf("initial ActiveNodes() = %d, want MinNodes 2", cl.ActiveNodes())
	}
}
