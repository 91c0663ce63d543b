package experiments

import (
	"fmt"

	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

// DESLearningOpts parameterise the DES-trained vs interval-trained
// comparison. The zero value selects the defaults below.
type DESLearningOpts struct {
	// Nodes is the fleet size (default 6).
	Nodes int
	// TrainSecs is the training horizon (default 600).
	TrainSecs float64
	// EvalSecs is the evaluation horizon (default 300).
	EvalSecs float64
	// LearnSecs is each manager's initial learning phase (default 300:
	// the managers cross into exploitation mid-way through training, so
	// the tables get polish under their own decisions).
	LearnSecs float64
}

func (o DESLearningOpts) withDefaults() DESLearningOpts {
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.TrainSecs == 0 {
		o.TrainSecs = 600
	}
	if o.EvalSecs == 0 {
		o.EvalSecs = 300
	}
	if o.LearnSecs == 0 {
		o.LearnSecs = 300
	}
	return o
}

// DESLearningRow is one trained table set, graded in the request-level
// DES on the held-out bursty day.
type DESLearningRow struct {
	// Source names where the tables were trained: "des" or "interval".
	Source string
	// P99 is the measured end-to-end request latency (seconds).
	P99 float64
	// QoSAttainment is the fraction of node-intervals meeting the tail
	// target during evaluation.
	QoSAttainment float64
	// EnergyJ is the fleet energy spent during evaluation.
	EnergyJ float64
	// CoreMigrations and DVFSChanges count the operating-point changes
	// the trained managers made during evaluation.
	CoreMigrations, DVFSChanges int
}

// DESLearningResult bundles the comparison.
type DESLearningResult struct {
	Opts DESLearningOpts
	// DESTrained evaluates tables trained inside the request-level DES
	// (reward = measured per-request tail).
	DESTrained DESLearningRow
	// IntervalTrained evaluates tables trained in interval mode against
	// the analytic tail estimate — the only training substrate that
	// existed before the DES learning loop.
	IntervalTrained DESLearningRow
}

// burstyDay is the load both training substrates and the evaluation
// see: a moderate base with hard periodic bursts. Burst transients are
// exactly where the interval mode's analytic tail and the measured
// request tail disagree — cross-node queueing built during the burst
// drains over the following intervals, which the analytic model
// collapses into independent per-interval estimates.
func burstyDay(horizon float64) loadgen.Pattern {
	return loadgen.Spike{Base: 0.35, Peak: 0.75, EverySecs: 100, SpikeSecs: 30, Horizon: horizon}
}

// DESLearning trains one set of hybrid managers inside the request-level
// DES (reward computed from measured request tails) and one set in
// interval mode (reward from the analytic tail estimate) — same fleet,
// same bursty day, same seed (DefaultSeed), same hyperparameters — then
// grades both table sets in the DES, the ground truth, on a held-out
// seed (DefaultSeed+1000, so neither table is graded on its own
// training day) with the managers switched to exploitation. The DES
// fleet runs in two routing domains, the sharded substrate the
// learning loop was built on, in training and evaluation alike. The
// experiment behind
// examples/deslearning: tables trained on the signal the paper actually
// cares about (measured tails) meet at least the interval-trained QoS
// at no more energy.
func DESLearning(o DESLearningOpts) (DESLearningResult, error) {
	o = o.withDefaults()
	res := DESLearningResult{Opts: o}
	spec := platform.JunoR1()
	wl := workload.WebSearch()
	params := core.DefaultParams()
	params.LearnSecs = o.LearnSecs

	newManagers := func() ([]*core.Manager, error) {
		mgrs := make([]*core.Manager, o.Nodes)
		for i := range mgrs {
			m, err := core.New(core.In, spec, params, DefaultSeed+int64(i))
			if err != nil {
				return nil, err
			}
			mgrs[i] = m
		}
		return mgrs, nil
	}
	desFleet := func(mgrs []*core.Manager, pattern loadgen.Pattern, seed int64) (*clusterdes.Fleet, error) {
		nodes, err := clusterdes.Uniform(o.Nodes, spec, wl)
		if err != nil {
			return nil, err
		}
		return clusterdes.New(clusterdes.Options{
			Nodes:   nodes,
			Pattern: pattern,
			Domains: 2,
			Seed:    seed,
			Learn: &clusterdes.LearnOptions{
				BuildPolicy: func(nodeID int) (policy.Policy, error) { return mgrs[nodeID], nil },
			},
		})
	}

	// Train inside the DES: reward is the measured per-request tail.
	desMgrs, err := newManagers()
	if err != nil {
		return res, fmt.Errorf("experiments: DES-trained managers: %w", err)
	}
	train, err := desFleet(desMgrs, burstyDay(o.TrainSecs), DefaultSeed)
	if err != nil {
		return res, fmt.Errorf("experiments: DES training fleet: %w", err)
	}
	if _, err := train.Run(o.TrainSecs); err != nil {
		return res, fmt.Errorf("experiments: DES training run: %w", err)
	}

	// Train in interval mode: same managers, day and seed, but the
	// reward comes from the analytic tail estimate.
	intMgrs, err := newManagers()
	if err != nil {
		return res, fmt.Errorf("experiments: interval-trained managers: %w", err)
	}
	defs, err := cluster.Uniform(o.Nodes, spec, wl, func(nodeID int) (policy.Policy, error) {
		return intMgrs[nodeID], nil
	})
	if err != nil {
		return res, fmt.Errorf("experiments: interval training fleet: %w", err)
	}
	cl, err := cluster.New(cluster.Options{
		Nodes:   defs,
		Pattern: burstyDay(o.TrainSecs),
		Seed:    DefaultSeed,
	})
	if err != nil {
		return res, fmt.Errorf("experiments: interval training fleet: %w", err)
	}
	if _, err := cl.Run(o.TrainSecs); err != nil {
		return res, fmt.Errorf("experiments: interval training run: %w", err)
	}

	// Grade both table sets in the DES on a held-out seed, managers in
	// exploitation: the evaluation fleets differ only in what the
	// tables learned.
	eval := func(source string, mgrs []*core.Manager) (DESLearningRow, error) {
		for _, m := range mgrs {
			m.EndEpisode()
			m.StartExploiting()
		}
		fl, err := desFleet(mgrs, burstyDay(o.EvalSecs), DefaultSeed+1000)
		if err != nil {
			return DESLearningRow{}, err
		}
		out, err := fl.Run(o.EvalSecs)
		if err != nil {
			return DESLearningRow{}, err
		}
		sum := out.Summarize()
		return DESLearningRow{
			Source:         source,
			P99:            out.Latency.P99,
			QoSAttainment:  sum.QoSAttainment,
			EnergyJ:        sum.TotalEnergyJ,
			CoreMigrations: out.Stats.CoreMigrations,
			DVFSChanges:    out.Stats.DVFSChanges,
		}, nil
	}
	if res.DESTrained, err = eval("des", desMgrs); err != nil {
		return res, fmt.Errorf("experiments: DES-trained evaluation: %w", err)
	}
	if res.IntervalTrained, err = eval("interval", intMgrs); err != nil {
		return res, fmt.Errorf("experiments: interval-trained evaluation: %w", err)
	}
	return res, nil
}
