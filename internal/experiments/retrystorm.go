package experiments

import (
	"hipster/internal/clusterdes"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// RetryStormOpts parameterise the retry-storm comparison. The zero
// value selects the default below.
type RetryStormOpts struct {
	// Horizon is the simulated duration in seconds (default 300); the
	// long post-spike stretch is what separates a fleet that recovers
	// from one stuck in the metastable state.
	Horizon float64
}

func (o RetryStormOpts) withDefaults() RetryStormOpts {
	if o.Horizon == 0 {
		o.Horizon = 300
	}
	return o
}

// stormPattern offers base load with one overload spike.
type stormPattern struct {
	base, peak  float64
	start, secs float64
	span        float64
}

func (p stormPattern) LoadAt(t float64) float64 {
	if t >= p.start && t < p.start+p.secs {
		return p.peak
	}
	return p.base
}

func (p stormPattern) Duration() float64 { return p.span }

// RetryStormRow is one variant of the retry-storm comparison.
type RetryStormRow struct {
	Variant string
	// End-to-end latency of completed requests (seconds), spanning
	// every attempt of a retried request.
	P50, P99 float64
	// Request dispositions.
	Completed, Dropped, TimedOut int
	// Resilience activity.
	Retries, Timeouts, BreakerOpens int
	// RecoveredInterval is the first monitoring interval at or after
	// the spike's end whose fleet-wide backlog is below two queued
	// requests per node, and from which the backlog never crosses that
	// line again (-1 = still saturated at the horizon). It is the
	// difference between a congestion collapse that drains and the
	// metastable state: the overload is long gone, yet retry traffic
	// alone keeps the queues full.
	RecoveredInterval int
}

// RetryStorm reproduces the classic metastable failure mode of naive
// retries (cf. the retry-storm analyses in arXiv:2111.10241's lineage)
// and the circuit-breaker escape from it, on one seed and one request
// stream. An 8-node Web-Search fleet at a comfortable 50% of capacity
// is hit by one spike to 1.6x capacity from t=60 s for 30 s, long
// enough to drive every in-flight request past its 0.3-s per-attempt
// deadline (comfortably above the healthy tail and far below spike
// queueing delays). Three variants of the same fleet and spike:
//
//   - no-retry: per-attempt deadlines only. The spike saturates the
//     fleet, timed-out requests are simply dropped, and the backlog
//     drains shortly after the spike ends.
//   - naive-retry: every timeout re-issues the request (a budget of
//     20 retries, near-zero backoff, no breaker). During the spike
//     each arrival multiplies into many attempts; after the spike the
//     retry traffic alone exceeds capacity, so the fleet stays saturated — the
//     metastable state. Its completed-request P99 is strictly worse
//     than the no-retry baseline's.
//   - breaker: the same naive retries behind a per-node circuit
//     breaker. The windowed failure rate trips the breakers open,
//     admission rejections exhaust retry budgets in fast-fail loops
//     instead of queue time, the storm starves, and the fleet drains
//     back to the healthy state the baseline reaches.
func RetryStorm(o RetryStormOpts) ([]RetryStormRow, error) {
	o = o.withDefaults()
	const timeout = 0.3
	naive := func() *resilience.Options {
		return &resilience.Options{
			Timeout:    timeout,
			MaxRetries: 20,
			Backoff:    resilience.Backoff{Base: 0.01, Cap: 0.02, Jitter: 0.1},
		}
	}
	broken := naive()
	broken.Breaker = &resilience.BreakerOptions{
		FailureThreshold: 0.5,
		MinSamples:       20,
	}
	variants := []struct {
		name  string
		resil *resilience.Options
	}{
		{"no-retry", &resilience.Options{Timeout: timeout}},
		{"naive-retry", naive()},
		{"breaker", broken},
	}
	var rows []RetryStormRow
	for _, v := range variants {
		nodes, err := clusterdes.Uniform(stormNodes, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return nil, err
		}
		fl, err := clusterdes.New(clusterdes.Options{
			Nodes: nodes,
			Pattern: stormPattern{
				base: 0.5, peak: 1.6,
				start: stormStart, secs: stormSecs,
				span: o.Horizon,
			},
			Seed:       DefaultSeed,
			Resilience: v.resil,
		})
		if err != nil {
			return nil, err
		}
		res, err := fl.Run(o.Horizon)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RetryStormRow{
			Variant:           v.name,
			P50:               res.Latency.P50,
			P99:               res.Latency.P99,
			Completed:         res.Latency.Completed,
			Dropped:           res.Latency.Dropped,
			TimedOut:          res.Latency.TimedOut,
			Retries:           res.Stats.Retries,
			Timeouts:          res.Stats.Timeouts,
			BreakerOpens:      res.Stats.BreakerOpens,
			RecoveredInterval: recoveredAt(res),
		})
	}
	return rows, nil
}

// The retry storm's fleet size and spike window, which recoveredAt
// reads too.
const (
	stormNodes            = 8
	stormStart, stormSecs = 60.0, 30.0
)

// recoveredAt scans the fleet trace from the spike's end for the first
// interval whose backlog stays below two queued requests per node for
// the rest of the run (base-load noise stays well under that line; a
// retry storm holds the backlog orders of magnitude above it).
func recoveredAt(res clusterdes.Result) int {
	samples := res.Fleet.Samples
	recovered := -1
	for i, s := range samples {
		if s.T < stormStart+stormSecs {
			continue
		}
		if s.Backlog < 2*stormNodes {
			if recovered < 0 {
				recovered = i
			}
		} else {
			recovered = -1
		}
	}
	return recovered
}
