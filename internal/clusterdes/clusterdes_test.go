package clusterdes_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/fleettest"
	"hipster/internal/loadgen"
	"hipster/internal/names"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// buildDES returns a DESBuildFunc over an 8-node Web-Search fleet with
// the given mitigation and optional autoscaling; Web-Search's tens of
// requests per second keep the event counts small enough for the
// property harness to run many fleets.
func buildDES(mit clusterdes.Mitigation, as *clusterdes.AutoscaleOptions, pattern loadgen.Pattern) fleettest.DESBuildFunc {
	return func(seed int64) (clusterdes.Options, error) {
		nodes, err := clusterdes.Uniform(8, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return clusterdes.Options{}, err
		}
		return clusterdes.Options{
			Nodes:      nodes,
			Pattern:    pattern,
			Mitigation: mit,
			Seed:       seed,
			Autoscale:  as,
		}, nil
	}
}

// stdResilience returns the full resilience surface for the property
// matrices — retries with backoff, tight per-attempt deadlines, a
// breaker, per-node rate limiting, hedge budgets and cancellation —
// fresh per call so builders stay independent.
func stdResilience() *resilience.Options {
	return &resilience.Options{
		MaxRetries:   2,
		Timeout:      0.4,
		Backoff:      resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
		Breaker:      &resilience.BreakerOptions{FailureThreshold: 0.5, MinSamples: 5},
		RateLimit:    &resilience.RateLimitOptions{RPS: 40},
		CancelHedges: true,
		HedgeBudget:  25,
	}
}

// withResilience layers the standard resilience options onto a builder.
func withResilience(build fleettest.DESBuildFunc) fleettest.DESBuildFunc {
	return func(seed int64) (clusterdes.Options, error) {
		opts, err := build(seed)
		if err != nil {
			return opts, err
		}
		opts.Resilience = stdResilience()
		return opts, nil
	}
}

// withLearn closes the RL loop on a builder with a short learning
// phase; params are rebuilt per call so runs cannot leak table state
// into each other.
func withLearn(build fleettest.DESBuildFunc) fleettest.DESBuildFunc {
	return func(seed int64) (clusterdes.Options, error) {
		opts, err := build(seed)
		if err != nil {
			return opts, err
		}
		params := core.DefaultParams()
		params.LearnSecs = 20
		opts.Learn = &clusterdes.LearnOptions{Params: &params}
		return opts, nil
	}
}

type desVariant struct {
	name    string
	build   fleettest.DESBuildFunc
	horizon float64
}

// desVariants enumerates the DES feature combinations the property
// harness must hold over: plain, hedged, work-stealing, autoscaled with
// warm-up, and the resilience layer composed with each mitigation, with
// autoscaling, and with in-DES learning.
func desVariants() []desVariant {
	steady := loadgen.Constant{Frac: 0.6}
	bursty := loadgen.Spike{Base: 0.2, Peak: 0.35, EverySecs: 30, SpikeSecs: 10, Horizon: 90}
	return []desVariant{
		{"plain", buildDES(nil, nil, steady), 60},
		{"hedged", buildDES(clusterdes.Hedged{}, nil, steady), 60},
		{"stealing", buildDES(clusterdes.WorkStealing{}, nil, steady), 60},
		{"autoscaled-warmup", buildDES(nil, &clusterdes.AutoscaleOptions{
			MinNodes:        2,
			WarmupIntervals: 3,
		}, bursty), 90},
		{"autoscaled-warmup-hedged", buildDES(clusterdes.Hedged{}, &clusterdes.AutoscaleOptions{
			MinNodes:           2,
			WarmupIntervals:    2,
			WarmupFactor:       0.25,
			Policy:             autoscale.QueueDepth{},
			CooldownIntervals:  3,
			DownAfterIntervals: 2,
		}, bursty), 90},
		{"autoscaled-warmup-stealing", buildDES(clusterdes.WorkStealing{}, &clusterdes.AutoscaleOptions{
			MinNodes:        2,
			WarmupIntervals: 3,
		}, bursty), 90},
		{"resilient", withResilience(buildDES(nil, nil, steady)), 60},
		{"resilient-hedged", withResilience(buildDES(clusterdes.Hedged{}, nil, steady)), 60},
		{"resilient-stealing", withResilience(buildDES(clusterdes.WorkStealing{}, nil, steady)), 60},
		{"resilient-autoscaled", withResilience(buildDES(clusterdes.Hedged{}, &clusterdes.AutoscaleOptions{
			MinNodes:        2,
			WarmupIntervals: 2,
		}, bursty)), 90},
		{"resilient-learn", withLearn(withResilience(buildDES(nil, nil, steady))), 60},
	}
}

// TestProperties asserts the two fleet invariants — bit-identical
// results at any worker count, and a seed that fully determines (and
// actually varies) the run — over every DES feature combination.
func TestProperties(t *testing.T) {
	for _, v := range desVariants() {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			fleettest.AssertDESWorkerInvariance(t, v.build, 42, v.horizon)
			fleettest.AssertDESSeedDeterminism(t, v.build, 42, v.horizon)
		})
	}
}

// TestResilienceConservation drives an overload phase through every
// resilience composition — at one and at two domains — and demands
// exact request bookkeeping once the fleet drains: admitted == completed +
// dropped + timed out, with the resilience machinery demonstrably
// active (deadlines firing, retries re-issued).
func TestResilienceConservation(t *testing.T) {
	overload := phasePattern{frac: 1.2, until: 30, span: 60}
	builds := []struct {
		name  string
		build fleettest.DESBuildFunc
	}{
		{"resilient", withResilience(buildDES(nil, nil, overload))},
		{"resilient-hedged", withResilience(buildDES(clusterdes.Hedged{}, nil, overload))},
		{"resilient-stealing", withResilience(buildDES(clusterdes.WorkStealing{}, nil, overload))},
		{"resilient-autoscaled", withResilience(buildDES(nil, &clusterdes.AutoscaleOptions{
			MinNodes:        2,
			WarmupIntervals: 2,
		}, overload))},
		{"resilient-learn", withLearn(withResilience(buildDES(nil, nil, overload)))},
	}
	for _, b := range builds {
		for _, domains := range []int{0, 2} {
			name := fmt.Sprintf("%s/domains=%d", b.name, domains)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts, err := b.build(42)
				if err != nil {
					t.Fatal(err)
				}
				opts.Domains = domains
				res := fleettest.AssertDESConservation(t, opts, 60)
				if res.Stats.Timeouts == 0 {
					t.Error("overload phase fired no attempt deadlines")
				}
				if res.Stats.Retries == 0 {
					t.Error("overload phase re-issued no attempts")
				}
			})
		}
	}
}

func runFleet(t *testing.T, mit clusterdes.Mitigation, splitter cluster.Splitter, horizon float64) clusterdes.Result {
	t.Helper()
	nodes, err := clusterdes.Uniform(8, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := clusterdes.New(clusterdes.Options{
		Nodes:      nodes,
		Pattern:    loadgen.Constant{Frac: 0.6},
		Splitter:   splitter,
		Mitigation: mit,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMitigationImprovesTail is the subsystem's reason to exist: on the
// same seed, both mitigation policies must cut the fleet's end-to-end
// P99 against the unmitigated baseline, without losing completions.
func TestMitigationImprovesTail(t *testing.T) {
	base := runFleet(t, nil, nil, 120)
	if base.Latency.Completed == 0 {
		t.Fatal("baseline completed no requests")
	}
	if base.Stats.Hedges != 0 || base.Stats.Steals != 0 {
		t.Fatalf("unmitigated run recorded mitigation activity: %+v", base.Stats)
	}
	for _, mit := range []clusterdes.Mitigation{clusterdes.Hedged{}, clusterdes.WorkStealing{}} {
		res := runFleet(t, mit, nil, 120)
		if res.Latency.P99 >= base.Latency.P99 {
			t.Errorf("%s: P99 %.4fs did not improve on the unmitigated %.4fs",
				mit.Name(), res.Latency.P99, base.Latency.P99)
		}
		if got, want := res.Latency.Completed, base.Latency.Completed*99/100; got < want {
			t.Errorf("%s: completed %d < %d", mit.Name(), got, want)
		}
	}
	hedged := runFleet(t, clusterdes.Hedged{}, nil, 120)
	if hedged.Stats.Hedges == 0 || hedged.Stats.HedgeWins == 0 {
		t.Errorf("hedged run issued %d hedges, won %d; want both > 0", hedged.Stats.Hedges, hedged.Stats.HedgeWins)
	}
	if hedged.Stats.HedgeWins > hedged.Stats.Hedges {
		t.Errorf("hedge wins %d exceed hedges issued %d", hedged.Stats.HedgeWins, hedged.Stats.Hedges)
	}
	stealing := runFleet(t, clusterdes.WorkStealing{}, nil, 120)
	if stealing.Stats.Steals == 0 {
		t.Error("work-stealing run stole nothing")
	}
}

// TestSplitters runs the DES through every built-in splitter, checking
// the routing weights actually reach the nodes (every node serves
// traffic under every splitter).
func TestSplitters(t *testing.T) {
	for _, name := range cluster.SplitterNames() {
		sp, err := cluster.SplitterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := runFleet(t, nil, sp, 60)
		for i, tr := range res.Nodes {
			if tr.Len() == 0 {
				t.Fatalf("splitter %s: node %d recorded no samples", name, i)
			}
			var offered float64
			for _, s := range tr.Samples {
				offered += s.OfferedRPS
			}
			if offered == 0 {
				t.Errorf("splitter %s: node %d never received load", name, i)
			}
		}
	}
}

// TestWarmupDegradesService checks the warm-up model has teeth: the
// same bursty autoscaled day with a serves-nothing warm-up must consume
// warm-up node-intervals and end with a worse end-to-end tail than
// instant activation.
func TestWarmupDegradesService(t *testing.T) {
	run := func(warmup int) clusterdes.Result {
		t.Helper()
		build := buildDES(nil, &clusterdes.AutoscaleOptions{
			MinNodes:        2,
			WarmupIntervals: warmup,
		}, loadgen.Spike{Base: 0.2, Peak: 0.4, EverySecs: 40, SpikeSecs: 15, Horizon: 160})
		opts, err := build(42)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := clusterdes.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fl.Run(160)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	instant := run(0)
	warmed := run(4)
	if instant.Stats.WarmupIntervals != 0 {
		t.Errorf("instant activation recorded %d warm-up intervals", instant.Stats.WarmupIntervals)
	}
	if warmed.Stats.WarmupIntervals == 0 {
		t.Error("warm-up run recorded no warm-up intervals")
	}
	if warmed.Latency.P99 <= instant.Latency.P99 {
		t.Errorf("warm-up P99 %.4fs not worse than instant activation %.4fs",
			warmed.Latency.P99, instant.Latency.P99)
	}
	if got := warmed.Summarize().WarmupIntervals; got != warmed.Stats.WarmupIntervals {
		t.Errorf("fleet trace warm-up intervals %d != stats %d",
			got, warmed.Stats.WarmupIntervals)
	}
}

// TestQueueBoundDrops checks the per-node queue bound sheds load under
// saturation instead of building an unbounded queue.
func TestQueueBoundDrops(t *testing.T) {
	nodes, err := clusterdes.Uniform(2, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := clusterdes.New(clusterdes.Options{
		Nodes:    nodes,
		Pattern:  loadgen.Constant{Frac: 1.5}, // sustained overload
		Seed:     42,
		MaxQueue: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Dropped == 0 {
		t.Error("saturated bounded-queue fleet dropped nothing")
	}
	for i, tr := range res.Nodes {
		for _, s := range tr.Samples {
			if s.Backlog > 8 {
				t.Fatalf("node %d queue depth %v exceeds the bound", i, s.Backlog)
			}
		}
	}
}

// TestMitigationByName sweeps the constructor over its registered
// names and checks the unknown-name error contract shared by every
// ByName family.
func TestMitigationByName(t *testing.T) {
	for _, name := range clusterdes.MitigationNames() {
		m, err := clusterdes.MitigationByName(name)
		if err != nil {
			t.Fatalf("registered name %q rejected: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("MitigationByName(%q).Name() = %q", name, m.Name())
		}
	}
	_, err := clusterdes.MitigationByName("nope")
	if !errors.Is(err, names.ErrUnknown) {
		t.Fatalf("unknown mitigation error = %v, want names.ErrUnknown", err)
	}
	for _, name := range clusterdes.MitigationNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestValidation sweeps the constructor's error paths.
func TestValidation(t *testing.T) {
	spec := platform.JunoR1()
	wl := workload.WebSearch()
	good := func() clusterdes.Options {
		nodes, _ := clusterdes.Uniform(2, spec, wl)
		return clusterdes.Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.5}, Seed: 1}
	}
	cases := []struct {
		name string
		mod  func(*clusterdes.Options)
	}{
		{"no nodes", func(o *clusterdes.Options) { o.Nodes = nil }},
		{"nil pattern", func(o *clusterdes.Options) { o.Pattern = nil }},
		{"negative workers", func(o *clusterdes.Options) { o.Workers = -1 }},
		{"negative queue bound", func(o *clusterdes.Options) { o.MaxQueue = -1 }},
		{"bad hedge quantile", func(o *clusterdes.Options) { o.Mitigation = clusterdes.Hedged{Quantile: 1.5} }},
		{"bad predictive quantile", func(o *clusterdes.Options) {
			o.Mitigation = clusterdes.Predictive{Quantile: 1}
		}},
		{"negative retries", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{MaxRetries: -1}
		}},
		{"retries beyond budget", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{MaxRetries: resilience.MaxRetryBudget + 1}
		}},
		{"negative timeout", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{Timeout: -1}
		}},
		{"bad backoff", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{MaxRetries: 1, Backoff: resilience.Backoff{Base: 2, Cap: 1}}
		}},
		{"bad breaker threshold", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{Breaker: &resilience.BreakerOptions{FailureThreshold: 2}}
		}},
		{"rate limit without rate", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{RateLimit: &resilience.RateLimitOptions{}}
		}},
		{"nil node spec", func(o *clusterdes.Options) { o.Nodes[0].Spec = nil }},
		{"nil node workload", func(o *clusterdes.Options) { o.Nodes[0].Workload = nil }},
		{"autoscale beyond roster", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{MaxNodes: 99}
		}},
		{"bad warm factor", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{WarmupFactor: 1}
		}},
		{"negative warm-up", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{WarmupIntervals: -1}
		}},
		{"initial outside bounds", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{MinNodes: 2, InitialNodes: 1}
		}},
		{"inverted autoscale bounds", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{MinNodes: 2, MaxNodes: 1}
		}},
		{"negative autoscale min", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{MinNodes: -1}
		}},
		{"negative cooldown", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{CooldownIntervals: -1}
		}},
		{"negative hysteresis", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{DownAfterIntervals: -1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := good()
			tc.mod(&opts)
			if _, err := clusterdes.New(opts); err == nil {
				t.Fatal("invalid options accepted")
			}
		})
	}
	if _, err := clusterdes.Uniform(0, spec, wl); err == nil {
		t.Fatal("Uniform accepted a zero node count")
	}
}

// TestFleetCounters checks the fleet-trace counter plumbing end to end:
// the merged samples carry the mitigation counters and the summary
// totals match the per-interval sums.
func TestFleetCounters(t *testing.T) {
	res := runFleet(t, clusterdes.Hedged{}, nil, 120)
	var hedges, wins int
	for _, s := range res.Fleet.Samples {
		hedges += s.Hedges
		wins += s.HedgeWins
	}
	if hedges != res.Stats.Hedges || wins != res.Stats.HedgeWins {
		t.Errorf("fleet samples sum to %d/%d hedges/wins, stats say %d/%d",
			hedges, wins, res.Stats.Hedges, res.Stats.HedgeWins)
	}
	sum := res.Summarize()
	if sum.Hedges != res.Stats.Hedges || sum.HedgeWins != res.Stats.HedgeWins {
		t.Errorf("summary hedges %d/%d != stats %d/%d",
			sum.Hedges, sum.HedgeWins, res.Stats.Hedges, res.Stats.HedgeWins)
	}
	if sum.Hedges != hedges || sum.HedgeWins != wins {
		t.Errorf("summary hedges %d/%d, samples sum to %d/%d", sum.Hedges, sum.HedgeWins, hedges, wins)
	}
}
