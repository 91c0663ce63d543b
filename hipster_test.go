package hipster_test

import (
	"errors"
	"strings"
	"testing"

	"hipster"
)

func TestQuickstartFlow(t *testing.T) {
	spec := hipster.JunoR1()
	mgr, err := hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := hipster.NewSimulation(hipster.SimOptions{
		Spec:     spec,
		Workload: hipster.Memcached(),
		Pattern:  hipster.DefaultDiurnal(),
		Policy:   mgr,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() != 300 {
		t.Fatalf("samples = %d", trace.Len())
	}
	if q := trace.QoSGuarantee(); q < 0.5 {
		t.Fatalf("QoS guarantee %v implausible", q)
	}
	if trace.TotalEnergyJ() <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestFacadeConstructors(t *testing.T) {
	spec := hipster.JunoR1()
	if got := len(hipster.Configs(spec)); got != 13 {
		t.Fatalf("configs = %d", got)
	}
	if _, err := hipster.NewHipsterCo(spec, hipster.DefaultParams(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := hipster.NewOctopusMan(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := hipster.NewHeuristicMapper(spec); err != nil {
		t.Fatal(err)
	}
	if hipster.NewStaticBig(spec).Name() != "static-big" {
		t.Fatal("static big")
	}
	if hipster.NewStaticSmall(spec).Name() != "static-small" {
		t.Fatal("static small")
	}
	if wl, err := hipster.WorkloadByName("websearch"); err != nil || wl == nil {
		t.Fatalf("workload lookup: %v", err)
	}
	if got := len(hipster.SPEC2006()); got != 12 {
		t.Fatalf("SPEC programs = %d", got)
	}
	if _, err := hipster.BatchProgramByName("lbm"); err != nil {
		t.Fatalf("program lookup: %v", err)
	}
}

// TestByNameConstructors sweeps every name-keyed constructor of the
// public API over every registered name, and checks that an unknown
// name yields the shared ErrUnknownName sentinel with the valid
// options listed in the message.
func TestByNameConstructors(t *testing.T) {
	cases := []struct {
		kind   string
		valid  []string
		lookup func(name string) error
	}{
		{"workload", []string{"memcached", "websearch"}, func(n string) error {
			_, err := hipster.WorkloadByName(n)
			return err
		}},
		{"splitter", []string{"round-robin", "weighted-by-capacity", "least-loaded"}, func(n string) error {
			_, err := hipster.SplitterByName(n)
			return err
		}},
		{"merge policy", []string{"visit-weighted", "max-confidence", "newest-wins"}, func(n string) error {
			_, err := hipster.MergePolicyByName(n)
			return err
		}},
		{"autoscale policy", []string{"target-utilization", "qos-headroom", "queue-depth"}, func(n string) error {
			_, err := hipster.AutoscalePolicyByName(n)
			return err
		}},
		{"mitigation", []string{"none", "hedged", "work-stealing"}, func(n string) error {
			_, err := hipster.MitigationByName(n)
			return err
		}},
		{"batch program", []string{
			"povray", "namd", "gromacs", "tonto", "sjeng", "calculix",
			"cactusADM", "lbm", "astar", "soplex", "libquantum", "zeusmp",
		}, func(n string) error {
			_, err := hipster.BatchProgramByName(n)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			for _, name := range tc.valid {
				if err := tc.lookup(name); err != nil {
					t.Errorf("registered name %q rejected: %v", name, err)
				}
			}
			err := tc.lookup("no-such-name")
			if !errors.Is(err, hipster.ErrUnknownName) {
				t.Fatalf("unknown name error = %v, want ErrUnknownName", err)
			}
			for _, name := range tc.valid {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not list the valid option %q", err, name)
				}
			}
		})
	}
}

// TestPolicyConstructors instantiates every policy constructor of the
// public API and steps each policy for a short horizon.
func TestPolicyConstructors(t *testing.T) {
	spec := hipster.JunoR1()
	wl := hipster.Memcached()
	cases := []struct {
		name  string
		build func() (hipster.Policy, error)
	}{
		{"hipster-in", func() (hipster.Policy, error) {
			return hipster.NewHipsterIn(spec, hipster.DefaultParams(), 1)
		}},
		{"hipster-co", func() (hipster.Policy, error) {
			return hipster.NewHipsterCo(spec, hipster.DefaultParams(), 1)
		}},
		{"octopus-man", func() (hipster.Policy, error) {
			return hipster.NewOctopusMan(spec)
		}},
		{"hipster-heuristic", func() (hipster.Policy, error) {
			return hipster.NewHeuristicMapper(spec)
		}},
		{"static-big", func() (hipster.Policy, error) {
			return hipster.NewStaticBig(spec), nil
		}},
		{"static-small", func() (hipster.Policy, error) {
			return hipster.NewStaticSmall(spec), nil
		}},
		{"oracle", func() (hipster.Policy, error) {
			return hipster.NewOracle(spec, wl, 0.05), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if pol.Name() == "" {
				t.Fatal("empty policy name")
			}
			sim, err := hipster.NewSimulation(hipster.SimOptions{
				Spec:     spec,
				Workload: wl,
				Pattern:  hipster.DefaultDiurnal(),
				Policy:   pol,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			trace, err := sim.Run(60)
			if err != nil {
				t.Fatal(err)
			}
			if trace.Len() != 60 {
				t.Fatalf("samples = %d", trace.Len())
			}
		})
	}
}

// TestClusterFacade exercises the fleet layer end to end through the
// public API: heterogeneous nodes, a feedback splitter, and parallel
// stepping.
func TestClusterFacade(t *testing.T) {
	spec := hipster.JunoR1()
	nodes, err := hipster.UniformClusterNodes(4, spec, hipster.Memcached(),
		func(nodeID int) (hipster.Policy, error) {
			return hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42+int64(nodeID))
		})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := hipster.NewCluster(hipster.ClusterOptions{
		Nodes:    nodes,
		Pattern:  hipster.DefaultDiurnal(),
		Splitter: hipster.NewLeastLoadedSplitter(),
		Workers:  4,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Len() != 120 || len(res.Nodes) != 4 {
		t.Fatalf("fleet intervals = %d, node traces = %d", res.Fleet.Len(), len(res.Nodes))
	}
	sum := res.Summarize()
	if sum.QoSAttainment <= 0 || sum.TotalEnergyJ <= 0 {
		t.Fatalf("implausible fleet summary: %+v", sum)
	}
	for _, name := range []string{"round-robin", "weighted-by-capacity", "least-loaded"} {
		if _, err := hipster.SplitterByName(name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterDESFacade(t *testing.T) {
	spec := hipster.JunoR1()
	nodes, err := hipster.UniformClusterDESNodes(4, spec, hipster.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := hipster.NewClusterDES(hipster.ClusterDESOptions{
		Nodes:      nodes,
		Pattern:    hipster.ConstantLoad{Frac: 0.6},
		Splitter:   hipster.NewCapacitySplitter(),
		Mitigation: hipster.NewHedgedMitigation(0),
		Workers:    4,
		Seed:       42,
		Autoscale: &hipster.AutoscaleOptions{
			Policy:          hipster.NewQueueDepthPolicy(),
			MinNodes:        2,
			WarmupIntervals: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Len() != 60 || len(res.Nodes) != 4 {
		t.Fatalf("fleet intervals = %d, node traces = %d", res.Fleet.Len(), len(res.Nodes))
	}
	if res.Latency.Completed == 0 || res.Latency.P99 <= res.Latency.P50 {
		t.Fatalf("implausible latency summary: %+v", res.Latency)
	}
	sum := res.Summarize()
	if sum.QoSAttainment <= 0 || sum.TotalEnergyJ <= 0 {
		t.Fatalf("implausible fleet summary: %+v", sum)
	}
	if _, err := hipster.MitigationByName("work-stealing"); err != nil {
		t.Fatal(err)
	}
	if hipster.NewWorkStealingMitigation().Name() != "work-stealing" {
		t.Fatal("work-stealing constructor name mismatch")
	}
}

func TestFederatedClusterFacade(t *testing.T) {
	spec := hipster.JunoR1()
	nodes, err := hipster.UniformClusterNodes(4, spec, hipster.Memcached(),
		func(nodeID int) (hipster.Policy, error) {
			return hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42+int64(nodeID))
		})
	if err != nil {
		t.Fatal(err)
	}
	merge, err := hipster.MergePolicyByName("visit-weighted")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := hipster.NewCluster(hipster.ClusterOptions{
		Nodes:    nodes,
		Pattern:  hipster.DefaultDiurnal(),
		Splitter: hipster.NewCapacitySplitter(),
		Workers:  4,
		Seed:     42,
		Federation: &hipster.FederationOptions{
			SyncEvery:          5,
			Merge:              merge,
			StalenessIntervals: 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(60); err != nil {
		t.Fatal(err)
	}
	st, ok := cl.FederationStats()
	if !ok {
		t.Fatal("federation stats missing")
	}
	if st.Rounds != 12 || st.Reports != 48 || st.MergedVisits == 0 {
		t.Fatalf("federation stats = %+v", st)
	}
	for _, name := range []string{"visit-weighted", "max-confidence", "newest-wins"} {
		if _, err := hipster.MergePolicyByName(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hipster.MergePolicyByName("nope"); err == nil {
		t.Fatal("want error for unknown merge policy name")
	}
}

// TestAutoscaledClusterFacade drives an elastic fleet end to end
// through the public API: the spiky day is served by a node set that
// follows the load, consuming fewer node-intervals than the roster
// would.
func TestAutoscaledClusterFacade(t *testing.T) {
	spec := hipster.JunoR1()
	nodes, err := hipster.UniformClusterNodes(6, spec, hipster.Memcached(),
		func(nodeID int) (hipster.Policy, error) {
			return hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42+int64(nodeID))
		})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := hipster.AutoscalePolicyByName("target-utilization")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := hipster.NewCluster(hipster.ClusterOptions{
		Nodes:   nodes,
		Pattern: hipster.Spike{Base: 0.3, Peak: 0.8, EverySecs: 40, SpikeSecs: 10, Horizon: 120},
		Workers: 4,
		Seed:    42,
		Federation: &hipster.FederationOptions{
			SyncEvery: 5,
		},
		Autoscale: &hipster.AutoscaleOptions{
			Policy:             pol,
			MinNodes:           2,
			CooldownIntervals:  3,
			DownAfterIntervals: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := cl.AutoscaleStats()
	if !ok {
		t.Fatal("autoscale stats missing")
	}
	if st.Ups == 0 {
		t.Fatal("spiky load never scaled the fleet up")
	}
	if st.NodeIntervals >= 6*120 {
		t.Fatalf("elastic fleet consumed %d node-intervals, the static roster would use %d", st.NodeIntervals, 6*120)
	}
	if sum := res.Summarize(); sum.NodeIntervals != st.NodeIntervals {
		t.Fatalf("summary node-intervals %d != stats %d", sum.NodeIntervals, st.NodeIntervals)
	}
}

func TestCollocationFlow(t *testing.T) {
	spec := hipster.JunoR1()
	prog, _ := hipster.BatchProgramByName("calculix")
	runner, err := hipster.NewBatchRunner([]hipster.BatchProgram{prog})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := hipster.NewHipsterCo(spec, hipster.DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := hipster.NewSimulation(hipster.SimOptions{
		Spec:     spec,
		Workload: hipster.WebSearch(),
		Pattern:  hipster.ConstantLoad{Frac: 0.3},
		Policy:   mgr,
		Batch:    runner,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if trace.MeanBatchIPS() <= 0 {
		t.Fatal("collocated run should report batch throughput")
	}
}

func TestCustomPatternViaFacade(t *testing.T) {
	spec := hipster.JunoR1()
	sim, err := hipster.NewSimulation(hipster.SimOptions{
		Spec:     spec,
		Workload: hipster.Memcached(),
		Pattern: hipster.Ramp{
			From: 0.5, To: 1.0, RampSecs: 50, HoldSecs: 10,
		},
		Policy: hipster.NewStaticBig(spec),
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Run(0) // pattern supplies the horizon
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() != 60 {
		t.Fatalf("samples = %d", trace.Len())
	}
}
