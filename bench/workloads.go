package main

import (
	"fmt"
	"math"
	"runtime"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/resilience"
	model "hipster/internal/workload"
)

// workload is one fixed-size batch job. Exactly one of des and interval
// is set: des builds a request-level fleet (clusterdes), interval an
// interval-mode fleet (cluster) that the benchmark steps itself.
type workload struct {
	name string
	why  string
	// horizon is the simulated duration in seconds (one interval per
	// second) at scale 1.
	horizon  float64
	des      func(seed int64, rec *recorder) (clusterdes.Options, error)
	interval func(seed int64, rec *recorder) (cluster.Options, error)
}

// workloads is the benchmark's fixed set. Each repetition takes about
// 3 s of host time on a 2-core x86-64 box; the why of each is what
// layer it loads and which it bypasses (see README.md).
var workloads = []workload{
	{
		name:    "ws-day",
		why:     "160-node Web-Search DES over the 1440-s diurnal day with hedging: routing-share walks and the event heap dominate",
		horizon: 1440,
		des: func(seed int64, rec *recorder) (clusterdes.Options, error) {
			nodes, err := clusterdes.Uniform(160, platform.JunoR1(), model.WebSearch())
			return clusterdes.Options{
				Nodes:      nodes,
				Pattern:    rec.pattern(loadgen.DefaultDiurnal()),
				Splitter:   rec.splitter(cluster.WeightedByCapacity{}),
				Mitigation: clusterdes.Hedged{},
				Workers:    runtime.NumCPU(),
				Seed:       seed,
			}, err
		},
	},
	{
		name:    "mc-dense",
		why:     "8-node Memcached DES at 60% load, no mitigation: ~11M sub-ms requests, so per-event cost is nearly all the work",
		horizon: 60,
		des: func(seed int64, rec *recorder) (clusterdes.Options, error) {
			nodes, err := clusterdes.Uniform(8, platform.JunoR1(), model.Memcached())
			return clusterdes.Options{
				Nodes:      nodes,
				Pattern:    rec.pattern(loadgen.Constant{Frac: 0.6}),
				Splitter:   rec.splitter(cluster.WeightedByCapacity{}),
				Mitigation: clusterdes.None{},
				Workers:    runtime.NumCPU(),
				Seed:       seed,
			}, err
		},
	},
	{
		name:    "ws-sharded",
		why:     "4096-node Web-Search DES in 16 routing domains with work stealing: parallel domain steps, steal heap, 4096 summaries a tick",
		horizon: 70,
		des: func(seed int64, rec *recorder) (clusterdes.Options, error) {
			nodes, err := clusterdes.Uniform(4096, platform.JunoR1(), model.WebSearch())
			return clusterdes.Options{
				Nodes:      nodes,
				Pattern:    rec.pattern(loadgen.Constant{Frac: 0.3}),
				Splitter:   rec.splitter(cluster.WeightedByCapacity{}),
				Mitigation: clusterdes.WorkStealing{},
				Workers:    runtime.NumCPU(),
				Domains:    16,
				Seed:       seed,
			}, err
		},
	},
	{
		name:    "elastic-chaos",
		why:     "512-node learning, federated, autoscaled Web-Search DES under spikes, faults, retries and predictive hedging: every boundary step fires",
		horizon: 600,
		des: func(seed int64, rec *recorder) (clusterdes.Options, error) {
			spec := platform.JunoR1()
			nodes, err := clusterdes.Uniform(512, spec, model.WebSearch())
			return clusterdes.Options{
				Nodes:      nodes,
				Pattern:    rec.pattern(loadgen.Spike{Base: 0.10, Peak: 0.20, EverySecs: 100, SpikeSecs: 30, Horizon: 600}),
				Splitter:   rec.splitter(cluster.WeightedByCapacity{}),
				Mitigation: clusterdes.Predictive{},
				Workers:    runtime.NumCPU(),
				Seed:       seed,
				Learn: &clusterdes.LearnOptions{
					BuildPolicy: rec.desPolicies(spec, seed),
					Federation:  &cluster.FederationOptions{SyncEvery: 10},
				},
				Autoscale: &clusterdes.AutoscaleOptions{
					Policy:          rec.scaler(autoscale.TargetUtilization{Target: 0.6}),
					MinNodes:        64,
					InitialNodes:    512,
					WarmupIntervals: 3,
				},
				Faults: &faults.Options{CrashRate: 0.002, SlowRate: 0.002, PartitionRate: 0.005, SpotFraction: 0.25},
				Resilience: &resilience.Options{
					MaxRetries:   2,
					Timeout:      1.0,
					Breaker:      &resilience.BreakerOptions{},
					CancelHedges: true,
					HedgeBudget:  50,
				},
			}, err
		},
	},
	{
		name:    "interval-fleet",
		why:     "512-node interval-mode HipsterIn Memcached fleet, federated and autoscaled, over four diurnal days: the analytic substrate",
		horizon: 4 * 1440,
		interval: func(seed int64, rec *recorder) (cluster.Options, error) {
			spec := platform.JunoR1()
			params := core.DefaultParams()
			nodes, err := cluster.Uniform(512, spec, model.Memcached(), func(id int) (policy.Policy, error) {
				m, err := core.New(core.In, spec, params, seed+int64(id))
				if err != nil {
					return nil, err
				}
				return rec.policy(m), nil
			})
			day := loadgen.DefaultDiurnal()
			day.Days = 4
			return cluster.Options{
				Nodes:      nodes,
				Pattern:    day,
				Splitter:   rec.splitter(cluster.LeastLoaded{}),
				Workers:    runtime.NumCPU(),
				Seed:       seed,
				Federation: &cluster.FederationOptions{SyncEvery: 10},
				Autoscale: &cluster.AutoscaleOptions{
					Policy:   rec.scaler(autoscale.TargetUtilization{}),
					MinNodes: 128,
				},
			}, err
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaledHorizon is the workload's horizon at the given scale, at least
// two intervals.
func (w workload) scaledHorizon(scale float64) float64 {
	return math.Max(2, math.Round(w.horizon*scale))
}
