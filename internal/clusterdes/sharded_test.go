package clusterdes_test

import (
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/fleettest"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// TestShardedEquivalence checks that multi-domain runs of every DES
// feature combination (including every resilience composition) are
// equivalent at every worker count and determined by the seed;
// TestProperties covers the same combinations at one domain.
func TestShardedEquivalence(t *testing.T) {
	for _, v := range desVariants() {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			fleettest.AssertShardedDeterminism(t, v.build, 42, v.horizon)
		})
	}
}

func TestShardedValidation(t *testing.T) {
	nodes, err := clusterdes.Uniform(2, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	good := clusterdes.Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.5}, Seed: 1}

	bad := good
	bad.Domains = -1
	if _, err := clusterdes.New(bad); err == nil {
		t.Error("negative domain count accepted")
	}
	bad = good
	bad.Domains = 3
	if _, err := clusterdes.New(bad); err == nil {
		t.Error("more domains than nodes accepted")
	}
	ok := good
	ok.Domains = 2
	if _, err := clusterdes.New(ok); err != nil {
		t.Errorf("valid sharded options rejected: %v", err)
	}
}

// phasePattern drives a fixed load fraction until a cut-over time and
// zero load after it, so by a late-enough horizon every admitted
// request has completed or been dropped — the conservation checks can
// then demand exact bookkeeping.
type phasePattern struct {
	frac  float64
	until float64
	span  float64
}

func (p phasePattern) LoadAt(t float64) float64 {
	if t < p.until {
		return p.frac
	}
	return 0
}

func (p phasePattern) Duration() float64 { return p.span }

// schedulePolicy proposes a fixed active count that switches at a
// known interval — a deterministic trigger for the scale-down paths.
type schedulePolicy struct {
	before, after, switchAt int
}

func (p schedulePolicy) Name() string { return "schedule" }

func (p schedulePolicy) Desired(ctx autoscale.Context) int {
	if ctx.Interval < p.switchAt {
		return p.before
	}
	return p.after
}

// assertConserved checks the request conservation law on a fully
// drained run: every primary arrival the fleet admitted is accounted
// for exactly once — as a completion, a drop, or a terminal timeout —
// none lost, none double-counted.
func assertConserved(t *testing.T, res clusterdes.Result) {
	t.Helper()
	if res.Stats.Requests == 0 {
		t.Fatal("run admitted no requests")
	}
	lat := res.Latency
	if got := lat.Completed + lat.Dropped + lat.TimedOut; got != res.Stats.Requests {
		t.Errorf("conservation violated: %d completed + %d dropped + %d timed out != %d requests",
			lat.Completed, lat.Dropped, lat.TimedOut, res.Stats.Requests)
	}
}

func runSharded(t *testing.T, opts clusterdes.Options, horizon float64) clusterdes.Result {
	t.Helper()
	fl, err := clusterdes.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrossDomainSteal forces steals across a domain boundary: the
// single node of domain 1 runs a small-cores-only configuration but
// receives an equal round-robin share, so it drowns while domain 0's
// nodes idle — only a boundary cross-domain steal can rescue it.
func TestCrossDomainSteal(t *testing.T) {
	nodes, err := clusterdes.Uniform(3, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	small := platform.Config{NSmall: 4}
	nodes[2].Config = &small // domain 1 = {node 2} under a 3-into-2 split
	res := runSharded(t, clusterdes.Options{
		Nodes:      nodes,
		Pattern:    phasePattern{frac: 0.55, until: 40, span: 60},
		Splitter:   cluster.RoundRobin{},
		Mitigation: clusterdes.WorkStealing{},
		Domains:    2,
		Seed:       7,
	}, 60)
	if res.Stats.CrossDomainSteals == 0 {
		t.Error("no steal crossed the domain boundary")
	}
	if res.Stats.Steals < res.Stats.CrossDomainSteals {
		t.Errorf("cross-domain steals %d exceed total steals %d",
			res.Stats.CrossDomainSteals, res.Stats.Steals)
	}
	assertConserved(t, res)
}

// TestCrossDomainHedge forces hedge copies into other domains: with
// one node per domain, a hedge can never find an in-domain target, so
// every issued hedge is a deferred cross-domain mirror.
func TestCrossDomainHedge(t *testing.T) {
	nodes, err := clusterdes.Uniform(3, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	res := runSharded(t, clusterdes.Options{
		Nodes:      nodes,
		Pattern:    phasePattern{frac: 0.85, until: 40, span: 60},
		Mitigation: clusterdes.Hedged{},
		Domains:    3,
		Seed:       7,
	}, 60)
	if res.Stats.Hedges == 0 {
		t.Fatal("no hedges issued")
	}
	if res.Stats.CrossDomainHedges != res.Stats.Hedges {
		t.Errorf("with single-node domains every hedge must cross: %d cross of %d issued",
			res.Stats.CrossDomainHedges, res.Stats.Hedges)
	}
	if res.Stats.HedgeWins > res.Stats.Hedges {
		t.Errorf("hedge wins %d exceed hedges issued %d", res.Stats.HedgeWins, res.Stats.Hedges)
	}
	assertConserved(t, res)
}

// TestCrossDomainMigration deactivates an entire domain mid-run: a
// fixed-schedule scale-down from 4 to 2 nodes under overload powers
// off domain 1 while its queues are deep, so the drained requests can
// only re-home across the boundary.
func TestCrossDomainMigration(t *testing.T) {
	nodes, err := clusterdes.Uniform(4, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	res := runSharded(t, clusterdes.Options{
		Nodes:   nodes,
		Pattern: phasePattern{frac: 1.3, until: 10, span: 30},
		Domains: 2,
		Seed:    7,
		Autoscale: &clusterdes.AutoscaleOptions{
			MinNodes:           2,
			MaxNodes:           4,
			InitialNodes:       4,
			Policy:             schedulePolicy{before: 4, after: 2, switchAt: 8},
			CooldownIntervals:  1,
			DownAfterIntervals: 2,
		},
	}, 30)
	if res.Stats.Downs == 0 {
		t.Fatal("the scheduled scale-down never fired")
	}
	if res.Stats.CrossDomainMigrations == 0 {
		t.Error("no migration crossed the domain boundary")
	}
	if res.Stats.Migrated < res.Stats.CrossDomainMigrations {
		t.Errorf("cross-domain migrations %d exceed total migrations %d",
			res.Stats.CrossDomainMigrations, res.Stats.Migrated)
	}
	assertConserved(t, res)
}
