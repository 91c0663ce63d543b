package tuning

import (
	"fmt"
	"math"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// Dimension names of the default search space; FleetOptions binds each
// of them onto the learn-enabled cluster DES.
const (
	DimAlpha         = "alpha"          // RL learning rate
	DimGamma         = "gamma"          // RL discount factor
	DimBucketFrac    = "bucket-frac"    // RL load-bucket width
	DimLearnSecs     = "learn-secs"     // initial learning-phase duration
	DimHedgeQuantile = "hedge-quantile" // hedge delay quantile
	DimDomains       = "domains"        // routing domains
	DimSyncInterval  = "sync-interval"  // federation sync interval
	DimScaleTarget   = "scale-target"   // autoscale utilisation target
	DimMitigation    = "mitigation"     // straggler mitigation
)

// DefaultSpace is the search space over the learn-enabled cluster DES:
// Hipster's RL hyperparameters (alpha, gamma, bucket-frac,
// learn-secs), the hedge quantile, the routing-domain count, the
// federation sync interval, the autoscaler's utilisation target, and
// the mitigation policy itself. Each default is read from the engine
// package that applies it — core.DefaultParams, DefaultHedgeQuantile
// in clusterdes, DefaultSyncInterval in cluster, and
// DefaultTargetUtilization in autoscale — the same place the CLI flags
// read theirs, so the default Point IS the configuration an untuned
// run uses. The bounds are a search policy, not validity ranges: they
// keep the climb in the region worth exploring. nodes caps the domain
// dimension (a fleet cannot shard past its roster) and must be at
// least 2.
func DefaultSpace(nodes int) (Space, error) {
	if nodes < 2 {
		return Space{}, fmt.Errorf("tuning: default space needs at least 2 nodes, got %d", nodes)
	}
	maxDomains := 4
	if nodes < maxDomains {
		maxDomains = nodes
	}
	params := core.DefaultParams()
	s := Space{Dims: []Dimension{
		{Name: DimAlpha, Kind: Continuous, Min: 0.1, Max: 1.0, Default: params.Alpha},
		{Name: DimGamma, Kind: Continuous, Min: 0.0, Max: 0.98, Default: params.Gamma},
		{Name: DimBucketFrac, Kind: Continuous, Min: 0.02, Max: 0.25, Default: params.BucketFrac},
		{Name: DimLearnSecs, Kind: Continuous, Min: 30, Max: 500, Default: params.LearnSecs, Step: 120},
		{Name: DimHedgeQuantile, Kind: Continuous, Min: 0.55, Max: 0.99, Default: clusterdes.DefaultHedgeQuantile},
		{Name: DimDomains, Kind: Discrete, Min: 1, Max: float64(maxDomains), Default: 1},
		{Name: DimSyncInterval, Kind: Discrete, Min: 2, Max: 20, Default: cluster.DefaultSyncInterval, Step: 3},
		{Name: DimScaleTarget, Kind: Continuous, Min: 0.5, Max: 0.95, Default: autoscale.DefaultTargetUtilization, Step: 0.12},
		{Name: DimMitigation, Kind: Categorical, Default: 0, Values: clusterdes.MitigationNames()},
	}}
	return s, s.Validate()
}

// FleetEvaluator maps a Point of the default space onto a concrete
// learn-enabled cluster DES run: a uniform Juno R1 fleet training on a
// bursty day with federation, elastic autoscaling and the Point's
// mitigation, every knob of the Point bound to the corresponding engine
// option. It names its workload and pattern, so a tuning artifact can
// record the fleet it was tuned on (Result.Fleet). Unset fields take
// DefaultFleet's values.
type FleetEvaluator struct {
	// Nodes is the fleet size.
	Nodes int `json:"nodes"`
	// Workload names the latency-critical workload (workload.ByName).
	Workload string `json:"workload"`
	// Pattern names the training day (loadgen.ByName). Empty selects
	// the tuner's bursty day: 0.35 base, 0.75 peak every 100 s for 30 s
	// over Horizon — the transients where tuned knobs separate from
	// defaults.
	Pattern string `json:"pattern,omitempty"`
	// Horizon is the simulated seconds per evaluation.
	Horizon float64 `json:"horizon_s"`
	// MinNodes is the autoscaler's lower bound; the fleet starts full
	// and may shed down to it.
	MinNodes int `json:"min_nodes"`
}

// DefaultFleet returns the tuner's default evaluation fleet: 6
// Web-Search nodes, 300 simulated seconds per evaluation, an autoscale
// floor of 2, and the bursty training day (empty Pattern).
func DefaultFleet() FleetEvaluator {
	return FleetEvaluator{Nodes: 6, Workload: "websearch", Horizon: 300, MinNodes: 2}
}

// fleet is a FleetEvaluator with its unset fields filled and its names
// resolved: what every evaluation of one evaluator shares, so the
// per-evaluation FleetOptions call builds no spec, workload or pattern.
type fleet struct {
	FleetEvaluator
	spec    *platform.Spec
	wl      *workload.Model
	pattern loadgen.Pattern
}

// resolve fills unset fields from DefaultFleet, checks the numbers and
// resolves the names. The fleet needs at least 2 nodes, as
// DefaultSpace does, an autoscale floor from 1 to the fleet size, and
// a finite horizon > 0; each refusal names the field as the artifact
// spells it. An unknown name returns an error wrapping
// names.ErrUnknown.
func (e FleetEvaluator) resolve() (fleet, error) {
	d := DefaultFleet()
	if e.Nodes == 0 {
		e.Nodes = d.Nodes
	}
	if e.Workload == "" {
		e.Workload = d.Workload
	}
	if e.Horizon == 0 {
		e.Horizon = d.Horizon
	}
	if e.MinNodes == 0 {
		e.MinNodes = d.MinNodes
	}
	switch {
	case e.Nodes < 2:
		return fleet{}, fmt.Errorf("tuning: fleet: nodes %d: want at least 2", e.Nodes)
	case e.MinNodes < 1 || e.MinNodes > e.Nodes:
		return fleet{}, fmt.Errorf("tuning: fleet: min_nodes %d: want 1 to nodes (%d)", e.MinNodes, e.Nodes)
	case !(e.Horizon > 0) || math.IsInf(e.Horizon, 1):
		return fleet{}, fmt.Errorf("tuning: fleet: horizon_s %v: want a finite number of seconds > 0", e.Horizon)
	}
	f := fleet{FleetEvaluator: e, spec: platform.JunoR1()}
	var err error
	if f.wl, err = workload.ByName(e.Workload); err != nil {
		return fleet{}, fmt.Errorf("tuning: fleet: %w", err)
	}
	if e.Pattern == "" {
		f.pattern = loadgen.Spike{Base: 0.35, Peak: 0.75, EverySecs: 100, SpikeSecs: 30, Horizon: e.Horizon}
	} else if f.pattern, err = loadgen.ByName(e.Pattern); err != nil {
		return fleet{}, fmt.Errorf("tuning: fleet: %w", err)
	}
	return f, nil
}

// Space returns the evaluator's search space (DefaultSpace capped by
// its fleet size), or an error naming a workload or pattern that does
// not resolve.
func (e FleetEvaluator) Space() (Space, error) {
	f, err := e.resolve()
	if err != nil {
		return Space{}, err
	}
	return DefaultSpace(f.Nodes)
}

// FleetOptions binds configuration p onto cluster DES options under
// one evaluation seed. The fleet is built with Workers: 1 — the tuner
// parallelises across evaluations, not inside them — and the result
// depends only on (p, seed), which is the purity the search requires.
// Exported so cmd/hipster can rebuild the exact evaluation fleet when
// replaying a tuning artifact under -mode=des.
func (e FleetEvaluator) FleetOptions(s Space, p Point, seed int64) (clusterdes.Options, error) {
	f, err := e.resolve()
	if err != nil {
		return clusterdes.Options{}, err
	}
	return f.options(s, p, seed)
}

func (f fleet) options(s Space, p Point, seed int64) (clusterdes.Options, error) {
	if !s.Contains(p) {
		return clusterdes.Options{}, fmt.Errorf("tuning: point %v outside the search space", p)
	}
	// A replayed artifact may carry a foreign space; verify it binds
	// every knob this evaluator needs before indexing into it.
	for _, name := range []string{DimAlpha, DimGamma, DimBucketFrac, DimLearnSecs,
		DimHedgeQuantile, DimDomains, DimSyncInterval, DimScaleTarget, DimMitigation} {
		if s.Index(name) < 0 {
			return clusterdes.Options{}, fmt.Errorf("tuning: space lacks the %s dimension", name)
		}
	}
	if s.Dims[s.Index(DimMitigation)].Kind != Categorical {
		return clusterdes.Options{}, fmt.Errorf("tuning: %s dimension must be categorical", DimMitigation)
	}
	nodes, err := clusterdes.Uniform(f.Nodes, f.spec, f.wl)
	if err != nil {
		return clusterdes.Options{}, err
	}
	params := core.DefaultParams()
	params.Alpha = s.Value(p, DimAlpha)
	params.Gamma = s.Value(p, DimGamma)
	params.BucketFrac = s.Value(p, DimBucketFrac)
	params.LearnSecs = s.Value(p, DimLearnSecs)
	if err := params.Validate(); err != nil {
		return clusterdes.Options{}, err
	}
	mit, err := clusterdes.MitigationByName(s.Category(p, DimMitigation), s.Value(p, DimHedgeQuantile))
	if err != nil {
		return clusterdes.Options{}, fmt.Errorf("tuning: %w", err)
	}

	return clusterdes.Options{
		Nodes:      nodes,
		Pattern:    f.pattern,
		Mitigation: mit,
		Workers:    1,
		Domains:    int(s.Value(p, DimDomains)),
		Seed:       seed,
		Learn: &clusterdes.LearnOptions{
			Params: &params,
			Federation: &cluster.FederationOptions{
				SyncEvery: int(s.Value(p, DimSyncInterval)),
			},
		},
		Autoscale: &clusterdes.AutoscaleOptions{
			Policy:       autoscale.TargetUtilization{Target: s.Value(p, DimScaleTarget)},
			MinNodes:     f.MinNodes,
			InitialNodes: f.Nodes,
		},
	}, nil
}

// Evaluator returns the Tune evaluation function over this fleet:
// simulate p under seed and report the run's headline metrics. A
// workload or pattern that does not resolve fails every evaluation.
func (e FleetEvaluator) Evaluator(s Space) Evaluator {
	f, err := e.resolve()
	return func(p Point, seed int64) (Metrics, error) {
		if err != nil {
			return Metrics{}, err
		}
		opts, err := f.options(s, p, seed)
		if err != nil {
			return Metrics{}, err
		}
		return clusterdes.Evaluate(opts, f.Horizon)
	}
}
