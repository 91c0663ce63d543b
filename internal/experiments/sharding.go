package experiments

import (
	"fmt"

	"hipster/internal/clusterdes"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// ShardingOpts parameterise the routing-domain sharding experiment.
// The zero value selects the defaults below: a 256-node Web-Search
// fleet — far past the roster size where one fleet-wide event loop's
// per-arrival fleet scans dominate — served at a steady 60% of
// capacity with work stealing on, so the domain decomposition has
// cross-domain traffic to reconcile, not just independent partitions.
type ShardingOpts struct {
	// Nodes is the roster size (default 256).
	Nodes int
	// Seed drives every variant identically (default DefaultSeed).
	Seed int64
	// Horizon is the simulated duration in seconds (default 90).
	Horizon float64
	// LoadFrac is the steady offered load (default 0.6 of capacity).
	LoadFrac float64
	// Domains lists the domain counts to sweep (default 1, 2, 4, 8);
	// a baseline at the default Domains 0 always runs first.
	Domains []int
}

func (o ShardingOpts) withDefaults() ShardingOpts {
	if o.Nodes == 0 {
		o.Nodes = 256
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Horizon == 0 {
		o.Horizon = 90
	}
	if o.LoadFrac == 0 {
		o.LoadFrac = 0.6
	}
	if o.Domains == nil {
		o.Domains = []int{1, 2, 4, 8}
	}
	return o
}

// ShardingRow is one domain-count variant of the sweep. Domains 0 is
// the baseline at the default domain count (one fleet-wide domain, the
// "serial" row of examples/sharding).
type ShardingRow struct {
	Domains int
	// End-to-end request accounting and latency (seconds).
	Completed, Dropped int
	P50, P99           float64
	QoSAttainment      float64
	// Cross-domain traffic the boundary reconciliation carried.
	Steals, CrossDomainSteals int
}

// ShardingResult is the sweep plus its headline equivalence claim.
type ShardingResult struct {
	Rows []ShardingRow
	// SerialIdentical reports whether the explicit one-domain run
	// reproduced the Domains 0 baseline exactly — same completions,
	// same drops, same latency quantiles to the last bit, same steal
	// count. Both run one fleet-wide domain, so this holds by
	// construction; the field keeps the example's output stable.
	SerialIdentical bool
}

// Sharding runs the same 256-node fleet, load and seed at the default
// domain count and at each swept domain count: the experiment behind
// examples/sharding. Every run is a deterministic function of (seed,
// domain count) — the rows show how the workload's steals spread
// across domain boundaries as the partition gets finer.
func Sharding(o ShardingOpts) (ShardingResult, error) {
	o = o.withDefaults()
	run := func(domains int) (clusterdes.Result, error) {
		nodes, err := clusterdes.Uniform(o.Nodes, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return clusterdes.Result{}, err
		}
		fl, err := clusterdes.New(clusterdes.Options{
			Nodes:      nodes,
			Pattern:    loadgen.Constant{Frac: o.LoadFrac},
			Mitigation: clusterdes.WorkStealing{},
			Domains:    domains,
			Seed:       o.Seed,
		})
		if err != nil {
			return clusterdes.Result{}, err
		}
		return fl.Run(o.Horizon)
	}
	row := func(domains int, res clusterdes.Result) ShardingRow {
		return ShardingRow{
			Domains:           domains,
			Completed:         res.Latency.Completed,
			Dropped:           res.Latency.Dropped,
			P50:               res.Latency.P50,
			P99:               res.Latency.P99,
			QoSAttainment:     res.Summarize().QoSAttainment,
			Steals:            res.Stats.Steals,
			CrossDomainSteals: res.Stats.CrossDomainSteals,
		}
	}

	serial, err := run(0)
	if err != nil {
		return ShardingResult{}, fmt.Errorf("serial baseline: %w", err)
	}
	result := ShardingResult{Rows: []ShardingRow{row(0, serial)}}
	for _, d := range o.Domains {
		res, err := run(d)
		if err != nil {
			return ShardingResult{}, fmt.Errorf("%d domains: %w", d, err)
		}
		result.Rows = append(result.Rows, row(d, res))
		if d == 1 {
			result.SerialIdentical = res.Latency == serial.Latency &&
				res.Stats == serial.Stats
		}
	}
	return result, nil
}
