package clusterdes

import (
	"strings"
	"testing"

	"hipster/internal/cluster"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

// drainedSpike is a spiky load with a zero-load tail, so by the
// horizon every admitted request has completed or been dropped and the
// conservation checks can demand exact bookkeeping.
type drainedSpike struct {
	spike loadgen.Spike
	until float64
	span  float64
}

func (p drainedSpike) LoadAt(t float64) float64 {
	if t < p.until {
		return p.spike.LoadAt(t)
	}
	return 0
}

func (p drainedSpike) Duration() float64 { return p.span }

// learnFleet builds a small learn-enabled fleet under a spiky load, with
// a learning phase short enough that the run crosses into exploitation.
func learnFleet(t *testing.T, mutate func(*Options)) *Fleet {
	t.Helper()
	nodes, err := Uniform(4, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.LearnSecs = 30
	opts := Options{
		Nodes: nodes,
		Pattern: drainedSpike{
			spike: loadgen.Spike{Base: 0.3, Peak: 0.7, EverySecs: 20, SpikeSecs: 6},
			until: 80,
			span:  95,
		},
		Seed:  5,
		Learn: &LearnOptions{Params: &params},
	}
	if mutate != nil {
		mutate(&opts)
	}
	fl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func assertLearnConserved(t *testing.T, res Result) {
	t.Helper()
	if res.Stats.Requests == 0 {
		t.Fatal("no requests generated")
	}
	if got := res.Latency.Completed + res.Latency.Dropped; got != res.Stats.Requests {
		t.Errorf("conservation violated: %d completed + %d dropped != %d requests",
			res.Latency.Completed, res.Latency.Dropped, res.Stats.Requests)
	}
}

// TestLearnDecidesAndReconfigures checks the loop actually closes: one
// decision per active node per interval, at least one configuration
// change applied, and the per-node traces record the changed operating
// points — all without losing a single request to the reconfiguration
// drain.
func TestLearnDecidesAndReconfigures(t *testing.T) {
	fl := learnFleet(t, nil)
	res, err := fl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	assertLearnConserved(t, res)
	intervals := res.Fleet.Len()
	if want := intervals * 4; res.Stats.LearnDecisions != want {
		t.Errorf("LearnDecisions = %d, want %d (4 nodes x %d intervals)", res.Stats.LearnDecisions, want, intervals)
	}
	if res.Stats.CoreMigrations+res.Stats.DVFSChanges == 0 {
		t.Error("learning never changed a configuration on a spiky day")
	}
	configs := map[[3]int]bool{}
	for _, s := range res.Nodes[0].Samples {
		configs[[3]int{s.NBig, s.NSmall, s.BigFreqMHz}] = true
	}
	if len(configs) < 2 {
		t.Errorf("node 0 trace records %d distinct configurations, want >= 2", len(configs))
	}
	learning := 0
	for _, s := range res.Fleet.Samples {
		learning += s.Learning
	}
	if learning == 0 {
		t.Error("no learning-phase intervals recorded in the fleet trace")
	}
	if got := res.Summarize().LearningIntervals; got != learning {
		t.Errorf("summary learning intervals %d, trace samples sum to %d", got, learning)
	}
}

// TestLearnWithMitigations runs the learning loop under each straggler
// mitigation: reconfiguration drains and hedge/steal bookkeeping must
// compose without losing requests.
func TestLearnWithMitigations(t *testing.T) {
	for _, mit := range []Mitigation{Hedged{}, WorkStealing{}} {
		mit := mit
		t.Run(mit.Name(), func(t *testing.T) {
			t.Parallel()
			fl := learnFleet(t, func(o *Options) { o.Mitigation = mit })
			res, err := fl.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			assertLearnConserved(t, res)
		})
	}
}

// TestLearnFederation checks the DES-mode federation plumbing: sync
// rounds run on schedule, and autoscale activations warm-start from the
// fleet table while departures flush into it.
func TestLearnFederation(t *testing.T) {
	fl := learnFleet(t, func(o *Options) {
		o.Learn.Federation = &cluster.FederationOptions{SyncEvery: 5}
		o.Autoscale = &AutoscaleOptions{MinNodes: 2, WarmupIntervals: 1}
	})
	res, err := fl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	assertLearnConserved(t, res)
	if res.Stats.SyncRounds == 0 {
		t.Error("no federation sync rounds ran")
	}
	st, ok := fl.FederationStats()
	if !ok {
		t.Fatal("FederationStats reported federation disabled")
	}
	if st.Rounds == 0 {
		t.Error("coordinator recorded no sync rounds")
	}
	if res.Stats.Ups > 0 && res.Stats.WarmStarts == 0 {
		t.Error("scale-ups happened but no node warm-started from the fleet table")
	}
	if res.Stats.Downs > 0 && res.Stats.Flushes == 0 {
		t.Error("scale-downs happened but no node flushed its delta")
	}
}

// TestLearnAccessors covers the learning introspection surface.
func TestLearnAccessors(t *testing.T) {
	fl := learnFleet(t, nil)
	if !fl.Learning() {
		t.Error("Learning() false on a learn-enabled fleet")
	}
	if fl.NodePolicy(0) == nil {
		t.Error("NodePolicy(0) nil on a learn-enabled fleet")
	}
	if _, ok := fl.FederationStats(); ok {
		t.Error("FederationStats ok without federation")
	}
	nodes, err := Uniform(2, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Learning() {
		t.Error("Learning() true without Options.Learn")
	}
	if plain.NodePolicy(0) != nil {
		t.Error("NodePolicy non-nil without Options.Learn")
	}
}

// TestLearnBuildPolicyErrors checks construction rejects broken policy
// builders.
func TestLearnBuildPolicyErrors(t *testing.T) {
	nodes, err := Uniform(2, platform.JunoR1(), workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.5}}

	opts := base
	opts.Learn = &LearnOptions{BuildPolicy: func(int) (policy.Policy, error) {
		return nil, errUnbuildable
	}}
	if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "unbuildable") {
		t.Errorf("builder error not surfaced: %v", err)
	}

	opts = base
	opts.Learn = &LearnOptions{BuildPolicy: func(int) (policy.Policy, error) {
		return nil, nil
	}}
	if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "nil policy") {
		t.Errorf("nil policy not rejected: %v", err)
	}
}

type unbuildableErr struct{}

func (unbuildableErr) Error() string { return "unbuildable" }

var errUnbuildable = unbuildableErr{}
