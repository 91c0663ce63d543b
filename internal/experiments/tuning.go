package experiments

import (
	"fmt"

	"hipster/internal/tuning"
)

// TuningOpts parameterise the offline-tuning experiment. The zero
// value selects the defaults below.
type TuningOpts struct {
	// Nodes is the fleet size under tuning (default 6).
	Nodes int
	// EvalSecs is the simulated horizon of every evaluation, training
	// and held-out alike (default 300).
	EvalSecs float64
	// Rounds, Neighbors and Restarts bound the search (defaults: 12
	// rounds and 3 restarts; Neighbors takes the tuning package's 4).
	Rounds, Neighbors, Restarts int
	// Workers parallelises candidate evaluation; 0 means GOMAXPROCS.
	// The result does not depend on it.
	Workers int
}

func (o TuningOpts) withDefaults() TuningOpts {
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.EvalSecs == 0 {
		o.EvalSecs = 300
	}
	// A deeper search than the package defaults: the interesting region
	// (high autoscale target, short learning phase, a mitigation) is
	// several moves from the untuned point, and restarts are what carry
	// the climb across the plateau between them.
	if o.Rounds == 0 {
		o.Rounds = 12
	}
	if o.Restarts == 0 {
		o.Restarts = 3
	}
	return o
}

// TuningRow grades one configuration on the held-out day.
type TuningRow struct {
	// Config names the configuration: "default" or "tuned".
	Config string
	// Key is the configuration's canonical identity.
	Key string
	// Metrics are the held-out evaluation's headline numbers.
	Metrics tuning.Metrics
	// Score is the weighted objective on the held-out day (lower is
	// better), under the same weights the search used.
	Score float64
}

// TuningResult bundles the tuned-vs-default comparison plus the full
// search artifact.
type TuningResult struct {
	Opts TuningOpts
	// Tune is the search's result: winner, baseline and the complete
	// evaluation ledger — the artifact cmd/hipster writes to disk.
	Tune tuning.Result
	// Default and Tuned grade the untuned and winning configurations on
	// the held-out seed (DefaultSeed+1000), the day neither ever trained
	// on.
	Default, Tuned TuningRow
	// HeldOutSeed is the seed both rows were graded under.
	HeldOutSeed int64
}

// Tuning runs the offline tuner over the learn-enabled cluster DES —
// seeded hill-climbing (search stream DefaultSeed, the tuning
// package's patience) with random restarts across the training seeds
// DefaultSeed and DefaultSeed+1 — then grades the winning
// configuration against the untuned default on a held-out day
// (DefaultSeed+1000) neither ever trained on. The experiment behind
// examples/tuning and the claim the artifact carries: the tuned
// configuration beats the default where it was never trained — a lower
// request tail at no worse QoS attainment or energy. The whole run is
// reproducible: same opts, same winner, same ledger, at any worker
// count.
func Tuning(o TuningOpts) (TuningResult, error) {
	o = o.withDefaults()
	res := TuningResult{Opts: o, HeldOutSeed: DefaultSeed + 1000}
	trainSeeds := []int64{DefaultSeed, DefaultSeed + 1}

	ev := tuning.FleetEvaluator{Nodes: o.Nodes, Horizon: o.EvalSecs}
	space, err := ev.Space()
	if err != nil {
		return res, fmt.Errorf("experiments: tuning space: %w", err)
	}
	evaluate := ev.Evaluator(space)

	// The negative budget has the search measure the untuned
	// configuration's draw on the training seeds and take that figure
	// as its soft energy budget: "no worse energy than the default"
	// becomes part of the objective rather than an after-the-fact hope.
	weights := tuning.DefaultWeights()
	weights.PowerCapW = -1

	res.Tune, err = tuning.Tune(tuning.Options{
		Space:     space,
		Evaluate:  evaluate,
		Seeds:     trainSeeds,
		Seed:      DefaultSeed,
		Neighbors: o.Neighbors,
		MaxRounds: o.Rounds,
		Restarts:  o.Restarts,
		Workers:   o.Workers,
		Weights:   weights,
	})
	if err != nil {
		return res, fmt.Errorf("experiments: tune: %w", err)
	}

	// Grade both configs on the held-out day.
	grade := func(config string, p tuning.Point) (TuningRow, error) {
		m, err := evaluate(p, res.HeldOutSeed)
		if err != nil {
			return TuningRow{}, fmt.Errorf("experiments: held-out evaluation of %s config: %w", config, err)
		}
		return TuningRow{
			Config:  config,
			Key:     space.Key(p),
			Metrics: m,
			Score:   res.Tune.Weights.Score(m),
		}, nil
	}
	if res.Default, err = grade("default", space.Default()); err != nil {
		return res, err
	}
	if res.Tuned, err = grade("tuned", res.Tune.WinnerPoint()); err != nil {
		return res, err
	}
	return res, nil
}
