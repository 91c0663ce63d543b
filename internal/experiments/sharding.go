package experiments

import (
	"fmt"

	"hipster/internal/clusterdes"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// ShardingRow is one domain-count variant of the sweep.
type ShardingRow struct {
	Domains int
	// End-to-end request accounting and latency (seconds).
	Completed, Dropped int
	P50, P99           float64
	QoSAttainment      float64
	// Cross-domain traffic the boundary reconciliation carried.
	Steals, CrossDomainSteals int
}

// Sharding runs the same fleet, load and seed at 1, 2, 4 and 8 routing
// domains: the experiment behind examples/sharding. The fleet has 256
// Web-Search nodes — far past the roster size where one fleet-wide
// event loop's per-arrival fleet scans dominate — served for 90 s at a
// steady 60% of capacity with work stealing on, so the domain
// decomposition has cross-domain traffic to reconcile, not just
// independent partitions. Every run is a deterministic function of
// (seed, domain count) — the rows show how the workload's steals
// spread across domain boundaries as the partition gets finer. The
// default domain count, 0, is not swept: it runs the same single
// fleet-wide domain as 1.
func Sharding() ([]ShardingRow, error) {
	const horizon = 90
	var rows []ShardingRow
	for _, domains := range []int{1, 2, 4, 8} {
		nodes, err := clusterdes.Uniform(256, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return nil, err
		}
		fl, err := clusterdes.New(clusterdes.Options{
			Nodes:      nodes,
			Pattern:    loadgen.Constant{Frac: 0.6},
			Mitigation: clusterdes.WorkStealing{},
			Domains:    domains,
			Seed:       DefaultSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("%d domains: %w", domains, err)
		}
		res, err := fl.Run(horizon)
		if err != nil {
			return nil, fmt.Errorf("%d domains: %w", domains, err)
		}
		rows = append(rows, ShardingRow{
			Domains:           domains,
			Completed:         res.Latency.Completed,
			Dropped:           res.Latency.Dropped,
			P50:               res.Latency.P50,
			P99:               res.Latency.P99,
			QoSAttainment:     res.Summarize().QoSAttainment,
			Steals:            res.Stats.Steals,
			CrossDomainSteals: res.Stats.CrossDomainSteals,
		})
	}
	return rows, nil
}
