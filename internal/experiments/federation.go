package experiments

import (
	"fmt"
	"math"

	"hipster/internal/cluster"
	"hipster/internal/core"
	"hipster/internal/federation"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// phasedWeights is the convergence experiment's front-end: each node's
// routing weight follows a sinusoid phase-shifted by its position in
// the fleet, so during a short learning phase every node explores a
// different slice of the load range, and as the phases rotate over the
// day each node later serves load levels its peers learned first. This
// is the regime where sharing tables pays: an independent learner hits
// buckets it has never visited and falls back to the heuristic mapper,
// while a federated learner exploits the fleet's merged experience.
type phasedWeights struct {
	// periodSecs is one full weight rotation (the experiment horizon).
	periodSecs float64
	// amp is the sinusoid amplitude in (0, 1).
	amp float64
}

// Name implements cluster.Splitter.
func (p phasedWeights) Name() string { return "phased-weights" }

// Split implements cluster.Splitter.
func (p phasedWeights) Split(ctx cluster.SplitContext) []float64 {
	out := make([]float64, len(ctx.Nodes))
	if len(ctx.Nodes) == 0 {
		return out
	}
	var total float64
	for i, n := range ctx.Nodes {
		phase := ctx.T/p.periodSecs + float64(i)/float64(len(ctx.Nodes))
		w := (1 + p.amp*math.Sin(2*math.Pi*phase)) * n.CapacityRPS
		out[i] = w
		total += w
	}
	for i := range out {
		out[i] = ctx.TotalRPS * out[i] / total
	}
	return out
}

// FederationConvergenceRun is one fleet's outcome.
type FederationConvergenceRun struct {
	Federated bool
	// ConvergedAt is the 1-based monitoring interval at which the
	// trailing-window fleet QoS attainment first reached the threshold
	// and then held it for the rest of the run; -1 if it never did.
	ConvergedAt int
	// QoSAttainment and TotalEnergyJ summarise the whole run.
	QoSAttainment float64
	TotalEnergyJ  float64
	// Stats is the coordinator's activity (federated fleet only).
	Stats federation.Stats
}

// FederationConvergenceResult compares the two fleets.
type FederationConvergenceResult struct {
	Independent FederationConvergenceRun
	Federated   FederationConvergenceRun
}

// FederationConvergence runs the same 4-node Memcached fleet twice on
// DefaultSeed — 4 independent Hipster learners, then the identical
// fleet with federated table sharing (visit-weighted, a sync round
// every 5 intervals, no staleness bound) — over one 1440-s diurnal day,
// and reports when each fleet's trailing 40-interval QoS attainment
// converges on 95%. The two fleets are bit-identical during the
// 120-s learning phase (decisions come from the heuristic mapper
// either way), so any difference in convergence is attributable to the
// quality of the tables exploitation starts from: each independent
// node has only its own learning phase of experience, while every
// federated node starts from the merged experience of the whole fleet.
// The phase is deliberately short, so exploitation starts from an
// undertrained table and the value of pooling fleet experience is
// visible. The experiment behind examples/federation.
func FederationConvergence(spec *platform.Spec) (FederationConvergenceResult, error) {
	const horizon = 1440
	var res FederationConvergenceResult

	run := func(fed *cluster.FederationOptions) (FederationConvergenceRun, error) {
		wl := workload.Memcached()
		params := core.DefaultParams()
		params.LearnSecs = 120
		nodes, err := cluster.Uniform(4, spec, wl, func(nodeID int) (policy.Policy, error) {
			return core.New(core.In, spec, params, DefaultSeed+int64(nodeID))
		})
		if err != nil {
			return FederationConvergenceRun{}, err
		}
		cl, err := cluster.New(cluster.Options{
			Nodes: nodes,
			// The day starts on the morning rise and peaks at 65% of
			// fleet capacity, so per-node load (weight-skewed up to
			// ~1.6x) approaches but does not exceed node capacity:
			// violations reflect management quality, not raw overload.
			Pattern:    loadgen.Diurnal{PeriodSecs: horizon, Min: 0.05, Max: 0.65, StartPhase: 0.25, Days: 1},
			Splitter:   phasedWeights{periodSecs: horizon, amp: 0.6},
			Seed:       DefaultSeed,
			Federation: fed,
		})
		if err != nil {
			return FederationConvergenceRun{}, err
		}
		out, err := cl.Run(horizon)
		if err != nil {
			return FederationConvergenceRun{}, err
		}
		r := FederationConvergenceRun{
			Federated:     fed != nil,
			ConvergedAt:   convergedAt(out.Fleet, 0.95, 40),
			QoSAttainment: out.Fleet.QoSAttainment(),
			TotalEnergyJ:  out.Fleet.TotalEnergyJ(),
		}
		if st, ok := cl.FederationStats(); ok {
			r.Stats = st
		}
		return r, nil
	}

	var err error
	if res.Independent, err = run(nil); err != nil {
		return res, fmt.Errorf("experiments: independent fleet: %w", err)
	}
	res.Federated, err = run(&cluster.FederationOptions{SyncEvery: 5})
	if err != nil {
		return res, fmt.Errorf("experiments: federated fleet: %w", err)
	}
	return res, nil
}

// convergedAt returns the 1-based interval at which the trailing-window
// fleet QoS attainment first reaches the threshold and holds it through
// the end of the run, or -1.
func convergedAt(ft *telemetry.FleetTrace, threshold float64, window int) int {
	n := ft.Len()
	if n < window {
		return -1
	}
	// ok[i]: trailing attainment of the window ending at interval i
	// (inclusive, 0-based) meets the threshold.
	met, nodes := 0, 0
	ok := make([]bool, n)
	for i := 0; i < n; i++ {
		met += ft.Samples[i].QoSMet
		nodes += ft.Samples[i].Nodes
		if i >= window {
			met -= ft.Samples[i-window].QoSMet
			nodes -= ft.Samples[i-window].Nodes
		}
		if i >= window-1 {
			ok[i] = nodes > 0 && float64(met)/float64(nodes) >= threshold
		}
	}
	// Walk backwards to find where the final all-ok suffix begins.
	last := n
	for i := n - 1; i >= window-1; i-- {
		if !ok[i] {
			break
		}
		last = i
	}
	if last == n {
		return -1
	}
	return last + 1
}
