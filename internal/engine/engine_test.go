package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hipster/internal/batch"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

func baseOpts() Options {
	spec := platform.JunoR1()
	return Options{
		Spec:     spec,
		Workload: workload.Memcached(),
		Pattern:  loadgen.Constant{Frac: 0.4},
		Policy:   policy.NewStaticBig(spec),
		Seed:     1,
	}
}

func TestNewValidatesOptions(t *testing.T) {
	cases := []func(*Options){
		func(o *Options) { o.Spec = nil },
		func(o *Options) { o.Workload = nil },
		func(o *Options) { o.Pattern = nil },
		func(o *Options) { o.Policy = nil },
		func(o *Options) { bad := platform.Config{NBig: 7}; o.InitialConfig = &bad },
	}
	for i, mod := range cases {
		o := baseOpts()
		mod(&o)
		if _, err := New(o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		o := baseOpts()
		o.Pattern = loadgen.DefaultDiurnal()
		e, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, tr.Len())
		for i, s := range tr.Samples {
			out[i] = s.TailLatency
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical seeds must produce identical traces")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	o := baseOpts()
	e1, _ := New(o)
	o2 := baseOpts()
	o2.Seed = 2
	e2, _ := New(o2)
	t1, _ := e1.Run(50)
	t2, _ := e2.Run(50)
	same := true
	for i := range t1.Samples {
		if t1.Samples[i].TailLatency != t2.Samples[i].TailLatency {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestRunHorizon(t *testing.T) {
	o := baseOpts()
	e, _ := New(o)
	tr, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100 {
		t.Fatalf("samples = %d, want 100", tr.Len())
	}
	// Unbounded pattern with no horizon is an error.
	o2 := baseOpts()
	e2, _ := New(o2)
	if _, err := e2.Run(0); err == nil {
		t.Fatal("unbounded run accepted")
	}
	// Bounded pattern supplies the horizon.
	o3 := baseOpts()
	o3.Pattern = loadgen.Ramp{From: 0.2, To: 0.8, RampSecs: 30, HoldSecs: 10}
	e3, _ := New(o3)
	tr3, err := e3.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.Len() != 40 {
		t.Fatalf("pattern-horizon samples = %d, want 40", tr3.Len())
	}
}

func TestEnergyAccumulatesMonotonically(t *testing.T) {
	o := baseOpts()
	e, _ := New(o)
	tr, _ := e.Run(60)
	prev := 0.0
	for i, s := range tr.Samples {
		if s.EnergyJ <= prev {
			t.Fatalf("energy not increasing at sample %d", i)
		}
		prev = s.EnergyJ
	}
	m := e.Meter()
	if math.Abs(m.TotalJ()-tr.TotalEnergyJ()) > 1e-9 {
		t.Fatal("meter and trace disagree")
	}
}

func TestMigrationAccounting(t *testing.T) {
	// An Octopus-Man style flip between 4S and 2B must be recorded with
	// distance 6 on the interval after the decision.
	spec := platform.JunoR1()
	flip := &flipPolicy{
		a: platform.Config{NSmall: 4},
		b: platform.Config{NBig: 2, BigFreq: 1150},
	}
	e, err := New(Options{
		Spec:     spec,
		Workload: workload.Memcached(),
		Pattern:  loadgen.Constant{Frac: 0.3},
		Policy:   flip,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := e.Run(10)
	migrated := 0
	for _, s := range tr.Samples[1:] {
		if s.Migrated == 6 {
			migrated++
		}
	}
	if migrated < 8 {
		t.Fatalf("expected cluster-switch migrations, got %d", migrated)
	}
}

type flipPolicy struct {
	a, b platform.Config
	flip bool
}

func (f *flipPolicy) Name() string { return "flip" }
func (f *flipPolicy) Decide(policy.Observation) platform.Config {
	f.flip = !f.flip
	if f.flip {
		return f.a
	}
	return f.b
}
func (f *flipPolicy) Reset() { f.flip = false }

func TestBatchGrantAlgorithm2(t *testing.T) {
	spec := platform.JunoR1()
	runner, err := batch.NewRunner(batch.SPEC2006()[:1])
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{
		Spec:     spec,
		Workload: workload.WebSearch(),
		Pattern:  loadgen.Constant{Frac: 0.2},
		Policy:   policy.NewStaticSmall(spec),
		Batch:    runner,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// LC on the small cluster only: batch gets both big cores at the
	// highest DVFS (Algorithm 2 lines 10-11).
	e.cfg = platform.Config{NSmall: 4}.Normalize(spec)
	g := e.batchGrant()
	if g.NBig != 2 || g.NSmall != 0 {
		t.Fatalf("grant = %+v", g)
	}
	if g.BigFreq != spec.Big.MaxFreq() {
		t.Fatalf("batch big cluster should be boosted, got %d MHz", g.BigFreq)
	}
	if got := e.bigClusterFreq(true); got != spec.Big.MaxFreq() {
		t.Fatalf("big cluster freq = %d", got)
	}

	// LC spanning both clusters: leftover cores share the LC setting.
	e.cfg = platform.Config{NBig: 1, NSmall: 3, BigFreq: 600}
	g = e.batchGrant()
	if g.NBig != 1 || g.NSmall != 1 {
		t.Fatalf("grant = %+v", g)
	}
	if g.BigFreq != 600 {
		t.Fatalf("shared-cluster batch core must run at the LC DVFS, got %d", g.BigFreq)
	}
}

func TestInteractiveOnlyDropsIdleClusterDVFS(t *testing.T) {
	spec := platform.JunoR1()
	e, err := New(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	e.cfg = platform.Config{NSmall: 4}.Normalize(spec)
	// HipsterIn semantics: remaining (big) cores at the lowest DVFS
	// (Algorithm 2 lines 12-13).
	if got := e.bigClusterFreq(false); got != spec.Big.MinFreq() {
		t.Fatalf("idle big cluster freq = %d, want min", got)
	}
}

func TestBatchSuspendedWhenNoCoresRemain(t *testing.T) {
	spec := platform.JunoR1()
	runner, _ := batch.NewRunner(batch.SPEC2006()[:1])
	// A policy that takes every core.
	all := &policy.Static{Label: "all", Config: platform.Config{NBig: 2, NSmall: 4, BigFreq: 1150}}
	e, err := New(Options{
		Spec:     spec,
		Workload: workload.Memcached(),
		Pattern:  loadgen.Constant{Frac: 0.9},
		Policy:   all,
		Batch:    runner,
		Seed:     1,
		InitialConfig: &platform.Config{
			NBig: 2, NSmall: 4, BigFreq: 1150,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := e.Run(5)
	if !runner.Suspended() {
		t.Fatal("batch should be suspended (SIGSTOP) with no free cores")
	}
	for _, s := range tr.Samples {
		if s.BatchBigIPS != 0 || s.BatchSmallIPS != 0 {
			t.Fatal("suspended batch must make no progress")
		}
	}
}

func TestCollocationProducesBatchThroughputAndNoGarbage(t *testing.T) {
	spec := platform.JunoR1()
	runner, _ := batch.NewRunner(batch.SPEC2006()[:2])
	e, err := New(Options{
		Spec:     spec,
		Workload: workload.WebSearch(),
		Pattern:  loadgen.Constant{Frac: 0.2},
		Policy:   policy.NewStaticBig(spec),
		Batch:    runner,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := e.Run(30)
	for _, s := range tr.Samples {
		if s.BatchSmallIPS <= 0 {
			t.Fatal("batch on small cores should retire instructions")
		}
		if s.PerfGarbage {
			t.Fatal("collocated runs disable CPUidle; counters must be clean")
		}
		if s.BatchBig != 0 || s.BatchSmall != 4 {
			t.Fatalf("batch core accounting: %d big, %d small", s.BatchBig, s.BatchSmall)
		}
	}
}

// TestPerfGarbageErratum pins the Juno erratum's truth table: the
// counters read garbage exactly when CPUidle is on (no batch jobs) and
// some core idles, and the sample and the policy's observation agree.
func TestPerfGarbageErratum(t *testing.T) {
	spec := platform.JunoR1()
	bigMax := platform.Config{NBig: spec.Big.Cores, BigFreq: spec.Big.MaxFreq()}
	allMax := platform.Config{NBig: spec.Big.Cores, NSmall: spec.Small.Cores, BigFreq: spec.Big.MaxFreq()}
	cases := []struct {
		name    string
		cfg     platform.Config
		pattern loadgen.Pattern
		batch   bool
		garbage bool
	}{
		{"cpuidle on, small cores unassigned", bigMax, loadgen.Constant{Frac: 0.4}, false, true},
		// fixedLoad passes overload through, so all six cores stay busy.
		{"cpuidle on, every core saturated", allMax, fixedLoad(3), false, false},
		{"cpuidle off under collocation", bigMax, loadgen.Constant{Frac: 0.4}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recordingPolicy{cfg: tc.cfg}
			o := Options{
				Spec:          spec,
				Workload:      workload.Memcached(),
				Pattern:       tc.pattern,
				Policy:        rec,
				Seed:          1,
				InitialConfig: &tc.cfg,
			}
			if tc.batch {
				runner, err := batch.NewRunner(batch.SPEC2006()[:2])
				if err != nil {
					t.Fatal(err)
				}
				o.Batch = runner
			}
			e, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := e.Run(20)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 20 {
				t.Fatalf("recorded %d intervals, want 20", tr.Len())
			}
			for i, s := range tr.Samples {
				if s.PerfGarbage != tc.garbage || rec.obs[i].PerfGarbage != tc.garbage {
					t.Fatalf("interval %d: sample garbage %v, observation garbage %v, want %v",
						i, s.PerfGarbage, rec.obs[i].PerfGarbage, tc.garbage)
				}
			}
		})
	}
}

func TestPolicyReceivesObservations(t *testing.T) {
	spec := platform.JunoR1()
	rec := &recordingPolicy{cfg: platform.Config{NBig: 2, BigFreq: 1150}}
	e, err := New(Options{
		Spec:     spec,
		Workload: workload.Memcached(),
		Pattern:  loadgen.Constant{Frac: 0.5},
		Policy:   rec,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(rec.obs) != 20 {
		t.Fatalf("policy saw %d observations", len(rec.obs))
	}
	for _, o := range rec.obs {
		if o.Target != workload.Memcached().TargetLatency {
			t.Fatal("observation target mismatch")
		}
		if o.LoadFrac < 0.3 || o.LoadFrac > 0.7 {
			t.Fatalf("observed load %v far from pattern", o.LoadFrac)
		}
		if o.PowerW <= 0 {
			t.Fatal("power reading missing")
		}
		if o.Current.Cores() == 0 {
			t.Fatal("current config missing")
		}
	}
}

type recordingPolicy struct {
	cfg platform.Config
	obs []policy.Observation
}

func (r *recordingPolicy) Name() string { return "recorder" }
func (r *recordingPolicy) Decide(o policy.Observation) platform.Config {
	r.obs = append(r.obs, o)
	return r.cfg
}
func (r *recordingPolicy) Reset() { r.obs = nil }

func TestInvalidPolicyDecisionSurfacesError(t *testing.T) {
	spec := platform.JunoR1()
	badPol := &policy.Static{Label: "bad", Config: platform.Config{NBig: 7, BigFreq: 1150}}
	e, err := New(Options{
		Spec:     spec,
		Workload: workload.Memcached(),
		Pattern:  loadgen.Constant{Frac: 0.5},
		Policy:   badPol,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5); err == nil {
		t.Fatal("invalid policy decision should fail the run")
	}
}

// fixedLoad is a pattern that returns one load at every t, unclamped,
// unlike loadgen.Constant.
type fixedLoad float64

func (f fixedLoad) LoadAt(float64) float64 { return float64(f) }
func (f fixedLoad) Duration() float64      { return 0 }

// TestStepRejectsInvalidLoad checks a pattern load that is not a
// finite value >= 0 fails the step with an error naming it, instead of
// a run reporting NaN energy.
func TestStepRejectsInvalidLoad(t *testing.T) {
	for _, load := range []float64{math.NaN(), -0.5, math.Inf(1)} {
		o := baseOpts()
		o.Pattern = fixedLoad(load)
		e, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Step()
		want := fmt.Sprintf("engine: pattern returned load %v at t=0; want a finite value >= 0", load)
		if err == nil || err.Error() != want {
			t.Errorf("load %v: error %v, want %q", load, err, want)
		}
		if e.Trace().Len() != 0 {
			t.Errorf("load %v: rejected step recorded a sample", load)
		}
	}
}
