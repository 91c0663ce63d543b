package tuning

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hipster/internal/clusterdes"
	"hipster/internal/loadgen"
	"hipster/internal/names"
)

// bowlEvaluator is a cheap synthetic objective with a known optimum: a
// quadratic bowl over the continuous dims plus a penalty for straying
// from discrete/categorical targets, with a small seed-dependent
// offset. Pure in (p, seed), like the real DES evaluator.
func bowlEvaluator(s Space) Evaluator {
	return func(p Point, seed int64) (Metrics, error) {
		var cost float64
		for i, d := range s.Dims {
			switch d.Kind {
			case Continuous:
				mid := (d.Min + d.Max) / 2
				cost += (p[i] - mid) * (p[i] - mid)
			case Discrete:
				cost += math.Abs(p[i] - d.Min)
			case Categorical:
				if int(p[i]) != 1 {
					cost += 0.5
				}
			}
		}
		cost += 0.001 * float64(seed%7)
		return Metrics{P99: cost, QoSAttainment: 1}, nil
	}
}

func tuneOpts(t *testing.T) Options {
	t.Helper()
	s := testSpace(t)
	return Options{
		Space:    s,
		Evaluate: bowlEvaluator(s),
		Seeds:    []int64{42, 43, 44},
		Seed:     9,
		Restarts: 1,
	}
}

// TestTuneTakesZeroSeed pins that 0 is a legal search seed: it may not
// be silently rewritten, or the artifact would record a search stream
// other than the one asked for.
func TestTuneTakesZeroSeed(t *testing.T) {
	o := tuneOpts(t)
	o.Seed = 0
	res, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchSeed != 0 {
		t.Fatalf("SearchSeed = %d, want the 0 that was asked for", res.SearchSeed)
	}
}

// TestTuneTakesZeroRestarts pins that Restarts 0 runs the default-point
// climb alone instead of silently adding a random restart.
func TestTuneTakesZeroRestarts(t *testing.T) {
	o := tuneOpts(t)
	o.Restarts = 0
	res, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Evaluations {
		if e.Restart != 0 {
			t.Fatalf("ledger entry %d comes from restart %d under Restarts 0", e.ID, e.Restart)
		}
	}
}

func TestTuneFindsImprovement(t *testing.T) {
	res, err := Tune(tuneOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.Score >= res.DefaultEval.Score {
		t.Fatalf("winner score %v did not beat default %v", res.Winner.Score, res.DefaultEval.Score)
	}
	// Winner must be the ledger minimum.
	for _, e := range res.Evaluations {
		if e.Score < res.Winner.Score {
			t.Fatalf("ledger entry %d scores %v below winner %v", e.ID, e.Score, res.Winner.Score)
		}
	}
	if !res.Space.Contains(res.WinnerPoint()) {
		t.Fatalf("winner point %v outside the space", res.WinnerPoint())
	}
	if res.Rounds < 1 {
		t.Fatalf("Rounds = %d", res.Rounds)
	}
}

func TestTuneLedgerInvariants(t *testing.T) {
	res, err := Tune(tuneOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, e := range res.Evaluations {
		if e.ID != i {
			t.Fatalf("ledger entry %d has ID %d", i, e.ID)
		}
		if seen[e.Key] {
			t.Fatalf("duplicate config in ledger: %s", e.Key)
		}
		seen[e.Key] = true
		if len(e.PerSeed) != len(res.Seeds) {
			t.Fatalf("entry %d has %d per-seed metrics, want %d", i, len(e.PerSeed), len(res.Seeds))
		}
	}
	// The default config is evaluated first (restart -1, round 0) and is
	// the baseline.
	if res.Evaluations[0].Key != res.Space.Key(res.Space.Default()) {
		t.Fatalf("first ledger entry is %s, not the default config", res.Evaluations[0].Key)
	}
	if res.DefaultEval.Key != res.Evaluations[0].Key {
		t.Fatalf("DefaultEval %s is not the default config", res.DefaultEval.Key)
	}
}

// TestTuneWorkerInvariance is the reproducibility contract: the same
// Options produce byte-identical artifacts at any worker count.
func TestTuneWorkerInvariance(t *testing.T) {
	var artifacts [][]byte
	for _, workers := range []int{1, 4, 13} {
		o := tuneOpts(t)
		o.Workers = workers
		res, err := Tune(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, buf.Bytes())
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Fatalf("artifact differs between worker counts 1 and %d", []int{1, 4, 13}[i])
		}
	}
}

func TestTuneSearchSeedChangesSearch(t *testing.T) {
	a, err := Tune(tuneOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	o := tuneOpts(t)
	o.Seed = 10
	b, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Evaluations) == len(b.Evaluations) {
		same := true
		for i := range a.Evaluations {
			if a.Evaluations[i].Key != b.Evaluations[i].Key {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different search seeds explored identical ledgers")
		}
	}
}

func TestTuneConvergesOnFlatObjective(t *testing.T) {
	o := tuneOpts(t)
	o.Evaluate = func(p Point, seed int64) (Metrics, error) {
		return Metrics{P99: 1, QoSAttainment: 1}, nil
	}
	o.MaxRounds = 50
	res, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("flat objective did not converge by patience")
	}
	// Patience 2 stops each climb after ~3 rounds, far under MaxRounds.
	if res.Rounds >= 50 {
		t.Fatalf("flat objective burned all %d rounds", res.Rounds)
	}
	// Ties keep the earliest evaluation: the default config wins.
	if res.Winner.ID != res.DefaultEval.ID {
		t.Fatalf("flat objective winner is entry %d, want the default %d", res.Winner.ID, res.DefaultEval.ID)
	}
}

func TestTuneErrorPropagation(t *testing.T) {
	o := tuneOpts(t)
	o.Evaluate = func(p Point, seed int64) (Metrics, error) {
		return Metrics{}, fmt.Errorf("boom under seed %d", seed)
	}
	if _, err := Tune(o); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Tune error = %v, want evaluator failure", err)
	}

	o = tuneOpts(t)
	o.Evaluate = func(p Point, seed int64) (Metrics, error) {
		return Metrics{P99: math.NaN(), QoSAttainment: 1}, nil
	}
	if _, err := Tune(o); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Tune error = %v, want NaN rejection", err)
	}
}

func TestTuneOptionValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"nil evaluator", func(o *Options) { o.Evaluate = nil }, "Evaluate is required"},
		{"bad space", func(o *Options) { o.Space = Space{} }, "empty search space"},
		{"negative neighbors", func(o *Options) { o.Neighbors = -1 }, "Neighbors"},
		{"negative rounds", func(o *Options) { o.MaxRounds = -2 }, "MaxRounds"},
		{"negative patience", func(o *Options) { o.Patience = -1 }, "Patience"},
		{"negative restarts", func(o *Options) { o.Restarts = -1 }, "Restarts"},
		{"negative weight", func(o *Options) { o.Weights = Weights{P99: -1} }, "weight"},
		{"NaN weight", func(o *Options) { o.Weights = Weights{P99: 1, QoSMiss: math.NaN()} }, "non-finite objective weight"},
		{"NaN budget", func(o *Options) { o.Weights = Weights{P99: 1, PowerCapW: math.NaN()} }, "non-finite objective weight"},
		{"infinite budget", func(o *Options) { o.Weights = Weights{P99: 1, PowerCapW: math.Inf(1)} }, "non-finite objective weight"},
		{"minus infinite budget", func(o *Options) { o.Weights = Weights{P99: 1, PowerCapW: math.Inf(-1)} }, "non-finite objective weight"},
		{"infinite cap price", func(o *Options) { o.Weights = Weights{P99: 1, PowerCapW: 5, CapW: math.Inf(1)} }, "non-finite objective weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tuneOpts(t)
			tc.mutate(&o)
			if _, err := Tune(o); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Tune error = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	res, err := Tune(tuneOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuning_result.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Winner.Key != res.Winner.Key || back.Winner.Score != res.Winner.Score {
		t.Fatalf("round-trip winner %s/%v, want %s/%v", back.Winner.Key, back.Winner.Score, res.Winner.Key, res.Winner.Score)
	}
	wp, rp := back.WinnerPoint(), res.WinnerPoint()
	for i := range rp {
		if wp[i] != rp[i] {
			t.Fatalf("round-trip winner point %v, want %v", wp, rp)
		}
	}
	if len(back.Evaluations) != len(res.Evaluations) {
		t.Fatalf("round-trip ledger length %d, want %d", len(back.Evaluations), len(res.Evaluations))
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadFile on missing path succeeded")
	}
	if back.Fleet != nil {
		t.Fatalf("artifact written without a fleet read back fleet %+v", back.Fleet)
	}

	// A recorded fleet reads back with its unset fields filled; one
	// naming an unregistered workload or pattern is refused.
	res.Fleet = &FleetEvaluator{Nodes: 4, Pattern: "ramp"}
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if back, err = ReadFile(path); err != nil {
		t.Fatal(err)
	}
	want := FleetEvaluator{Nodes: 4, Workload: "websearch", Pattern: "ramp", Horizon: 300, MinNodes: 2}
	if back.Fleet == nil || *back.Fleet != want {
		t.Fatalf("round-trip fleet %+v, want %+v", back.Fleet, want)
	}
	for _, bad := range []FleetEvaluator{{Workload: "hadoop"}, {Pattern: "sawtooth"}} {
		res.Fleet = &bad
		if err := res.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); !errors.Is(err, names.ErrUnknown) {
			t.Errorf("artifact fleet %+v: error %v, want names.ErrUnknown", bad, err)
		}
	}
}

// TestTuneMeasuresBudget pins the negative PowerCapW: the search takes
// its energy budget from the one evaluation of the default point it
// runs anyway, on every training seed, and the Result equals a run
// given that budget explicitly.
func TestTuneMeasuresBudget(t *testing.T) {
	o := tuneOpts(t)
	bowl, space, def := o.Evaluate, o.Space, o.Space.Key(o.Space.Default())
	var mu sync.Mutex
	defaultRuns := make(map[int64]int)
	o.Evaluate = func(p Point, seed int64) (Metrics, error) {
		if space.Key(p) == def {
			mu.Lock()
			defaultRuns[seed]++
			mu.Unlock()
		}
		// Configurations with a lower tail draw more power, so the
		// budget shapes the search.
		m, err := bowl(p, seed)
		m.MeanPowerW = 10 - m.P99 + float64(seed%3)
		return m, err
	}
	o.Weights = Weights{PowerCapW: -1}
	measured, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range o.Seeds {
		if defaultRuns[seed] != 1 {
			t.Errorf("default point evaluated %d times under seed %d, want once", defaultRuns[seed], seed)
		}
	}
	var capW float64
	for _, m := range measured.DefaultEval.PerSeed {
		capW += m.MeanPowerW
	}
	capW /= float64(len(o.Seeds))
	want := DefaultWeights()
	want.PowerCapW, want.CapW = capW, 10
	if measured.Weights != want {
		t.Fatalf("Result.Weights = %+v, want the measured budget in %+v", measured.Weights, want)
	}

	o.Weights = Weights{PowerCapW: capW}
	explicit, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(measured, explicit) {
		t.Fatalf("measured-budget result differs from the explicit-budget one:\n%+v\n%+v", measured, explicit)
	}
}

// TestFleetEvaluator pins the evaluation fleet: unset fields take
// DefaultFleet's values and an empty pattern the bursty day over the
// horizon, named choices reach the options, an evaluation equals a
// fleet run on those options, and a workload or pattern that does not
// resolve fails Space, FleetOptions and every evaluation with an error
// wrapping names.ErrUnknown.
func TestFleetEvaluator(t *testing.T) {
	ev := FleetEvaluator{Nodes: 2, Horizon: 50}
	space, err := ev.Space()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ev.FleetOptions(space, space.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	spike := loadgen.Spike{Base: 0.35, Peak: 0.75, EverySecs: 100, SpikeSecs: 30, Horizon: 50}
	if len(opts.Nodes) != 2 || opts.Nodes[0].Workload.Name != "websearch" || opts.Pattern != spike ||
		opts.Autoscale.MinNodes != 2 || opts.Autoscale.InitialNodes != 2 || opts.Seed != 7 || opts.Mitigation != (clusterdes.None{}) {
		t.Fatalf("default-filled options: %d nodes of %s, pattern %#v, autoscale %d-%d, seed %d, mitigation %#v",
			len(opts.Nodes), opts.Nodes[0].Workload.Name, opts.Pattern, opts.Autoscale.MinNodes,
			opts.Autoscale.InitialNodes, opts.Seed, opts.Mitigation)
	}

	ev = FleetEvaluator{Nodes: 2, Workload: "memcached", Pattern: "constant:0.4", Horizon: 5, MinNodes: 1}
	if opts, err = ev.FleetOptions(space, space.Default(), 7); err != nil {
		t.Fatal(err)
	}
	if opts.Nodes[0].Workload.Name != "memcached" || opts.Pattern != (loadgen.Constant{Frac: 0.4}) || opts.Autoscale.MinNodes != 1 {
		t.Fatalf("named options: workload %s, pattern %#v, autoscale floor %d",
			opts.Nodes[0].Workload.Name, opts.Pattern, opts.Autoscale.MinNodes)
	}
	got, err := ev.Evaluator(space)(space.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := clusterdes.Evaluate(opts, ev.Horizon); err != nil || got != want {
		t.Fatalf("evaluation = %+v, want the fleet run's %+v (%v)", got, want, err)
	}

	for _, bad := range []FleetEvaluator{{Workload: "hadoop"}, {Pattern: "sawtooth"}} {
		if _, err := bad.Space(); !errors.Is(err, names.ErrUnknown) {
			t.Errorf("%+v: Space error %v, want names.ErrUnknown", bad, err)
		}
		if _, err := bad.FleetOptions(space, space.Default(), 1); !errors.Is(err, names.ErrUnknown) {
			t.Errorf("%+v: FleetOptions error %v, want names.ErrUnknown", bad, err)
		}
		if _, err := bad.Evaluator(space)(space.Default(), 1); !errors.Is(err, names.ErrUnknown) {
			t.Errorf("%+v: evaluation error %v, want names.ErrUnknown", bad, err)
		}
	}
}

func TestStore(t *testing.T) {
	s := testSpace(t)
	st := NewStore(s)
	p := s.Default()
	if st.Seen(p) {
		t.Fatal("empty store claims to have seen the default")
	}
	id := st.Add(Evaluation{Key: s.Key(p), Settings: s.Settings(p), Score: 1})
	if id != 0 || st.Len() != 1 {
		t.Fatalf("first Add: id %d, len %d", id, st.Len())
	}
	if !st.Seen(p) {
		t.Fatal("store lost the added config")
	}
	got, ok := st.Lookup(p)
	if !ok || got.Score != 1 || got.ID != 0 {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	mustPanic(t, "duplicate Add", func() {
		st.Add(Evaluation{Key: s.Key(p)})
	})
}

func TestWeightsScore(t *testing.T) {
	w := DefaultWeights()
	m := Metrics{P99: 0.5, QoSAttainment: 0.9, MeanPowerW: 100}
	want := 0.5 + 5*0.1 + 0.1*100
	if got := w.Score(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	zero := Weights{}.withDefaults()
	if zero != w {
		t.Fatalf("zero weights default to %+v, want %+v", zero, w)
	}
	explicit := Weights{P99: 2}.withDefaults()
	if explicit != (Weights{P99: 2}) {
		t.Fatalf("explicit weights mutated: %+v", explicit)
	}
}

// TestWeightsZeroPricesKeepBudget pins that defaulting the three prices
// of an unset objective leaves an explicit energy budget in place.
func TestWeightsZeroPricesKeepBudget(t *testing.T) {
	got := Weights{PowerCapW: 50}.withDefaults()
	want := DefaultWeights()
	want.PowerCapW, want.CapW = 50, 10
	if got != want {
		t.Fatalf("budget-only weights default to %+v, want %+v", got, want)
	}
}

// TestWeightsPowerCap pins the soft energy budget: draw under the cap
// costs only the linear PowerW term, draw above it additionally pays
// CapW per excess watt, and an explicit cap without CapW gets the
// steep default so the budget cannot be configured into a no-op.
func TestWeightsPowerCap(t *testing.T) {
	w := Weights{P99: 1, QoSMiss: 5, PowerW: 0.1, PowerCapW: 100}.withDefaults()
	if w.CapW != 10 {
		t.Fatalf("CapW defaulted to %v, want 10", w.CapW)
	}
	under := Metrics{P99: 0.5, QoSAttainment: 1, MeanPowerW: 90}
	if got, want := w.Score(under), 0.5+0.1*90; math.Abs(got-want) > 1e-12 {
		t.Fatalf("under-cap score = %v, want %v", got, want)
	}
	over := Metrics{P99: 0.5, QoSAttainment: 1, MeanPowerW: 120}
	if got, want := w.Score(over), 0.5+0.1*120+10*20; math.Abs(got-want) > 1e-12 {
		t.Fatalf("over-cap score = %v, want %v", got, want)
	}
	custom := Weights{P99: 1, PowerCapW: 100, CapW: 3}.withDefaults()
	if custom.CapW != 3 {
		t.Fatalf("explicit CapW overwritten: %v", custom.CapW)
	}
	uncapped := Weights{P99: 1, PowerW: 0.1}.withDefaults()
	if got, want := uncapped.Score(over), 0.5+0.1*120; math.Abs(got-want) > 1e-12 {
		t.Fatalf("uncapped score = %v, want %v", got, want)
	}
}

// FuzzReadTuneResult pins the artifact reader on untrusted bytes: a
// replay takes its fleet size, horizon and names from a user-supplied
// file. Any input is refused with an error or yields a Result whose
// winner lies in its space, and the fleet a replay would run (the
// recorded one, else DefaultFleet) then binds that winner to options
// or fails with an error, never a panic.
func FuzzReadTuneResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := parseResult(b)
		if err != nil {
			return
		}
		p := r.WinnerPoint()
		if !r.Space.Contains(p) {
			t.Fatalf("accepted winner %v outside its space %+v", p, r.Space)
		}
		fl := DefaultFleet()
		if r.Fleet != nil {
			fl = *r.Fleet
		}
		// clusterdes.Uniform allocates per node.
		if fl.Nodes > 64 {
			return
		}
		_, _ = fl.FleetOptions(r.Space, p, 1)
	})
}
