package experiments

import (
	"reflect"
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/platform"
)

// TestAutoscaleElasticity pins the PR's acceptance criterion: on the
// default bursty day, the elastic fleet serves the trace at the 95%
// QoS-attainment bar while consuming measurably fewer node-intervals
// than the static fleet on the same seed, and federation moves learned
// state with the scaling (warm-starts on join, flushes on leave).
func TestAutoscaleElasticity(t *testing.T) {
	spec := platform.JunoR1()
	res, err := AutoscaleElasticity(spec, AutoscaleElasticityOpts{})
	if err != nil {
		t.Fatal(err)
	}

	if !res.TargetMet {
		t.Fatalf("QoS target missed: static %.4f, elastic %.4f, bar 0.95",
			res.Static.QoSAttainment, res.Elastic.QoSAttainment)
	}
	if res.Elastic.NodeIntervals >= res.Static.NodeIntervals {
		t.Fatalf("no elasticity win: elastic %d node-intervals vs static %d",
			res.Elastic.NodeIntervals, res.Static.NodeIntervals)
	}
	if res.NodeIntervalSaving < 0.10 {
		t.Fatalf("node-interval saving %.1f%% not measurable", res.NodeIntervalSaving*100)
	}
	if res.EnergySaving <= 0 {
		t.Fatalf("elastic fleet used more energy: saving %.1f%%", res.EnergySaving*100)
	}

	st := res.Elastic.Stats
	if st.Ups == 0 || st.Downs == 0 {
		t.Fatalf("fleet never scaled both ways: %+v", st)
	}
	if st.WarmStarts == 0 {
		t.Fatal("no node was warm-started from the fleet table")
	}
	if st.Flushes == 0 {
		t.Fatal("no departing node flushed its delta")
	}
	// The experiment's roster is 8 nodes with a floor of 2.
	if st.PeakActive > 8 || st.MinActive < 2 {
		t.Fatalf("bounds violated: %+v", st)
	}
	if res.Static.Stats != (autoscale.Stats{}) {
		t.Fatalf("static fleet reported autoscaler activity: %+v", res.Static.Stats)
	}
}

// TestAutoscaleElasticityDeterministic: the experiment is a pure
// function of its options — two invocations agree exactly, so the
// reported savings are reproducible claims rather than noise.
func TestAutoscaleElasticityDeterministic(t *testing.T) {
	spec := platform.JunoR1()
	opts := AutoscaleElasticityOpts{Horizon: 720}
	a, err := AutoscaleElasticity(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AutoscaleElasticity(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options produced different results:\n%+v\n%+v", a, b)
	}
}
