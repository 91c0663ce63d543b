package experiments

import (
	"fmt"

	"hipster/internal/autoscale"
	"hipster/internal/clusterdes"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// ClusterDESOpts parameterise HedgingTail; the zero value selects the
// default below. Web-Search is the workload of the request-level
// experiments: its tens of requests per second keep event counts
// tractable while its 500 ms p90 target leaves room between "queue is
// building" and "tail has crossed the target" — the window the
// queue-depth scaling signal exploits.
type ClusterDESOpts struct {
	// Horizon is the simulated duration in seconds (default 600).
	Horizon float64
}

func (o ClusterDESOpts) withDefaults() ClusterDESOpts {
	if o.Horizon == 0 {
		o.Horizon = 600
	}
	return o
}

// HedgingTailRow is one mitigation variant of the comparison.
type HedgingTailRow struct {
	Mitigation string
	// End-to-end request-latency distribution (seconds).
	P50, P99 float64
	// Completed requests and fleet QoS attainment.
	Completed     int
	QoSAttainment float64
	// Mitigation activity.
	Hedges, HedgeWins, Steals int
	// Straggler node-intervals (the signal mitigation acts on).
	Stragglers int
}

// HedgingTail runs the same 8-node fleet, 60% load and seed through
// each straggler-mitigation policy at its default settings and reports
// the end-to-end latency distribution of every variant: the experiment
// behind examples/hedging, quantifying how much fleet P99 the
// splitter-level mitigations recover from cross-node queueing that the
// interval-granularity model cannot even see.
func HedgingTail(o ClusterDESOpts) ([]HedgingTailRow, error) {
	o = o.withDefaults()
	spec := platform.JunoR1()
	wl := workload.WebSearch()
	var rows []HedgingTailRow
	// The classic three only: the predictive detector needs injected
	// degradation to act on, so it is benchmarked against hedged in
	// FaultTolerance instead of adding a redundant healthy-fleet row.
	for _, name := range []string{"none", "hedged", "work-stealing"} {
		mit, err := clusterdes.MitigationByName(name, clusterdes.DefaultHedgeQuantile)
		if err != nil {
			return nil, err
		}
		nodes, err := clusterdes.Uniform(8, spec, wl)
		if err != nil {
			return nil, err
		}
		fl, err := clusterdes.New(clusterdes.Options{
			Nodes:      nodes,
			Pattern:    loadgen.Constant{Frac: 0.6},
			Mitigation: mit,
			Seed:       DefaultSeed,
		})
		if err != nil {
			return nil, err
		}
		res, err := fl.Run(o.Horizon)
		if err != nil {
			return nil, err
		}
		sum := res.Summarize()
		rows = append(rows, HedgingTailRow{
			Mitigation:    name,
			P50:           res.Latency.P50,
			P99:           res.Latency.P99,
			Completed:     res.Latency.Completed,
			QoSAttainment: sum.QoSAttainment,
			Hedges:        res.Stats.Hedges,
			HedgeWins:     res.Stats.HedgeWins,
			Steals:        res.Stats.Steals,
			Stragglers:    sum.TotalStragglers,
		})
	}
	return rows, nil
}

// tailSignal is the distilled "last interval's tail" scaling signal
// the ROADMAP describes: one more node whenever any active node missed
// its tail-latency target last interval, one fewer when the fleet is
// clean and the demand would fit the smaller set comfortably. It is
// qos-headroom without the utilisation backstop — the backstop reacts
// to measured demand, which would mask the race between the two
// latency signals under comparison.
type tailSignal struct{}

// Name implements autoscale.Policy.
func (tailSignal) Name() string { return "tail-violation" }

// Desired implements autoscale.Policy.
func (tailSignal) Desired(ctx autoscale.Context) int {
	for _, n := range ctx.Nodes[:ctx.Active] {
		if n.Violated() {
			return ctx.Active + 1
		}
	}
	if ctx.Active > 1 && ctx.OfferedRPS <= 0.55*ctx.PrefixCapacity(ctx.Active-1) {
		return ctx.Active - 1
	}
	return ctx.Active
}

// WarmupSignalResult compares the two autoscale signals on the same
// bursty day and seed.
type WarmupSignalResult struct {
	// FirstScaleUp is the monitoring interval of each signal's first
	// activation (-1 = never scaled).
	TailFirstScaleUp, QueueFirstScaleUp int
	// End-to-end P99 and fleet QoS attainment under each signal.
	TailP99, QueueP99 float64
	TailQoS, QueueQoS float64
	// Node-intervals consumed (the cost side).
	TailNodeIntervals, QueueNodeIntervals int
}

// WarmupSignal races the queue-depth scaling signal against the
// tail-violation signal on the same bursty day, same seed, same
// warm-up. An 8-node roster with a 2-node floor idles at 15% of roster
// capacity; every 100 s a 40-s burst to 25% drives the minimum active
// set near (but not past) saturation, so a queue builds for several
// intervals before the measured tail crosses the 500 ms target. The
// tail-violation policy (see tailSignal) cannot move until the damage
// is visible; the queue-depth policy sees the queue the interval it
// forms and wakes the node earlier — which matters precisely because a
// woken node spends three intervals warming before it helps.
func WarmupSignal() (WarmupSignalResult, error) {
	const horizon = 300
	run := func(pol autoscale.Policy) (clusterdes.Result, error) {
		nodes, err := clusterdes.Uniform(8, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			return clusterdes.Result{}, err
		}
		fl, err := clusterdes.New(clusterdes.Options{
			Nodes:   nodes,
			Pattern: loadgen.Spike{Base: 0.15, Peak: 0.25, EverySecs: 100, SpikeSecs: 40, Horizon: horizon},
			Seed:    DefaultSeed,
			Autoscale: &clusterdes.AutoscaleOptions{
				Policy:          pol,
				MinNodes:        2,
				WarmupIntervals: 3,
			},
		})
		if err != nil {
			return clusterdes.Result{}, err
		}
		return fl.Run(horizon)
	}
	tail, err := run(tailSignal{})
	if err != nil {
		return WarmupSignalResult{}, fmt.Errorf("tail-signal run: %w", err)
	}
	queue, err := run(autoscale.QueueDepth{})
	if err != nil {
		return WarmupSignalResult{}, fmt.Errorf("queue-signal run: %w", err)
	}
	return WarmupSignalResult{
		TailFirstScaleUp:   tail.Stats.FirstScaleUpInterval,
		QueueFirstScaleUp:  queue.Stats.FirstScaleUpInterval,
		TailP99:            tail.Latency.P99,
		QueueP99:           queue.Latency.P99,
		TailQoS:            tail.Summarize().QoSAttainment,
		QueueQoS:           queue.Summarize().QoSAttainment,
		TailNodeIntervals:  tail.Stats.NodeIntervals,
		QueueNodeIntervals: queue.Stats.NodeIntervals,
	}, nil
}
