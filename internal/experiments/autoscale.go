package experiments

import (
	"fmt"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

// AutoscaleElasticityOpts parameterise the elastic-vs-static fleet
// comparison. The zero value selects the default below.
type AutoscaleElasticityOpts struct {
	// Horizon is the simulated duration in seconds (default 1440).
	Horizon float64
}

func (o AutoscaleElasticityOpts) withDefaults() AutoscaleElasticityOpts {
	if o.Horizon == 0 {
		o.Horizon = 1440
	}
	return o
}

// AutoscaleElasticityRun is one fleet's outcome.
type AutoscaleElasticityRun struct {
	Elastic bool
	// QoSAttainment is the fraction of active node-intervals that met
	// the QoS target.
	QoSAttainment float64
	// NodeIntervals is the active node-intervals consumed — what the
	// elastic fleet saves.
	NodeIntervals int
	// TotalEnergyJ is the fleet's cumulative energy.
	TotalEnergyJ float64
	// Stats is the autoscaler's activity (elastic fleet only).
	Stats autoscale.Stats
}

// AutoscaleElasticityResult compares the two fleets.
type AutoscaleElasticityResult struct {
	Opts    AutoscaleElasticityOpts
	Static  AutoscaleElasticityRun
	Elastic AutoscaleElasticityRun
	// NodeIntervalSaving is 1 - elastic/static node-intervals.
	NodeIntervalSaving float64
	// EnergySaving is 1 - elastic/static total energy.
	EnergySaving float64
	// TargetMet reports whether BOTH fleets attained 95% QoS — the
	// saving only counts if elasticity did not buy it with QoS.
	TargetMet bool
}

// AutoscaleElasticity runs the same bursty day twice on DefaultSeed: a
// static 8-node Memcached fleet with the whole roster on all day, and
// an elastic fleet whose active node set (2 to 8 nodes) follows the
// load under the target-utilization policy at its default target, with
// a 3-interval cooldown and 2-interval hysteresis. Every node learns
// for 120 s, and federation (a sync round every 5 intervals)
// warm-starts every node that joins mid-run. Every 180 s the load
// jumps from 30% to 80% of roster capacity for 45 s. The point of the
// comparison: the elastic fleet serves the same trace at the 95%
// QoS-attainment bar while consuming measurably fewer node-intervals
// (and joules) than the static fleet, because between bursts most of
// the roster sleeps. The experiment behind examples/autoscale.
func AutoscaleElasticity(spec *platform.Spec, o AutoscaleElasticityOpts) (AutoscaleElasticityResult, error) {
	o = o.withDefaults()
	res := AutoscaleElasticityResult{Opts: o}

	run := func(elastic bool) (AutoscaleElasticityRun, error) {
		wl := workload.Memcached()
		params := core.DefaultParams()
		params.LearnSecs = 120
		nodes, err := cluster.Uniform(8, spec, wl, func(nodeID int) (policy.Policy, error) {
			return core.New(core.In, spec, params, DefaultSeed+int64(nodeID))
		})
		if err != nil {
			return AutoscaleElasticityRun{}, err
		}
		opts := cluster.Options{
			Nodes:      nodes,
			Pattern:    loadgen.Spike{Base: 0.3, Peak: 0.8, EverySecs: 180, SpikeSecs: 45, Horizon: o.Horizon},
			Seed:       DefaultSeed,
			Federation: &cluster.FederationOptions{SyncEvery: 5},
		}
		if elastic {
			opts.Autoscale = &cluster.AutoscaleOptions{
				Policy:             autoscale.TargetUtilization{},
				MinNodes:           2,
				CooldownIntervals:  3,
				DownAfterIntervals: 2,
			}
		}
		cl, err := cluster.New(opts)
		if err != nil {
			return AutoscaleElasticityRun{}, err
		}
		out, err := cl.Run(o.Horizon)
		if err != nil {
			return AutoscaleElasticityRun{}, err
		}
		r := AutoscaleElasticityRun{
			Elastic:       elastic,
			QoSAttainment: out.Fleet.QoSAttainment(),
			NodeIntervals: out.Fleet.NodeIntervals(),
			TotalEnergyJ:  out.Fleet.TotalEnergyJ(),
		}
		if st, ok := cl.AutoscaleStats(); ok {
			r.Stats = st
		}
		return r, nil
	}

	var err error
	if res.Static, err = run(false); err != nil {
		return res, fmt.Errorf("experiments: static fleet: %w", err)
	}
	if res.Elastic, err = run(true); err != nil {
		return res, fmt.Errorf("experiments: elastic fleet: %w", err)
	}
	if res.Static.NodeIntervals > 0 {
		res.NodeIntervalSaving = 1 - float64(res.Elastic.NodeIntervals)/float64(res.Static.NodeIntervals)
	}
	if res.Static.TotalEnergyJ > 0 {
		res.EnergySaving = 1 - res.Elastic.TotalEnergyJ/res.Static.TotalEnergyJ
	}
	res.TargetMet = res.Static.QoSAttainment >= 0.95 && res.Elastic.QoSAttainment >= 0.95
	return res, nil
}
