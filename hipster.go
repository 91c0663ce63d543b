// Package hipster is a library-quality reproduction of "Hipster: Hybrid
// Task Manager for Latency-Critical Cloud Workloads" (Nishtala,
// Carpenter, Petrucci, Martorell — HPCA 2017).
//
// Hipster manages a latency-critical cloud workload on a heterogeneous
// (big.LITTLE) server: every monitoring interval it observes load and
// tail latency and picks a core mapping plus DVFS setting, combining a
// feedback-controlled heuristic (used while learning) with a
// reinforcement-learning lookup table (exploited thereafter). The
// HipsterIn variant minimises power for an interactive workload running
// alone; HipsterCo maximises the throughput of batch jobs collocated on
// the remaining cores. Octopus-Man (HPCA 2015) and static mappings are
// provided as baselines.
//
// The paper's testbed (an ARM Juno R1 board, Memcached and Web-Search
// backends, SPEC CPU 2006 co-runners) is reproduced as a calibrated
// simulation; README's Layout section lists the packages that model
// it, and cmd/paperfigs prints each table and figure of the paper from
// that model. The public API wires the same pieces the paper's system
// had: a platform, a latency-critical workload, a load pattern, a
// policy, and optional batch jobs, driven by a per-interval engine that
// records telemetry.
//
// Quick start:
//
//	spec := hipster.JunoR1()
//	mgr, _ := hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42)
//	sim, _ := hipster.NewSimulation(hipster.SimOptions{
//		Spec:     spec,
//		Workload: hipster.Memcached(),
//		Pattern:  hipster.DefaultDiurnal(),
//		Policy:   mgr,
//		Seed:     42,
//	})
//	trace, _ := sim.Run(1440)
//	fmt.Printf("QoS guarantee: %.1f%%\n", trace.QoSGuarantee()*100)
package hipster

import (
	"hipster/internal/autoscale"
	"hipster/internal/batch"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/engine"
	"hipster/internal/faults"
	"hipster/internal/federation"
	"hipster/internal/heuristic"
	"hipster/internal/loadgen"
	"hipster/internal/names"
	"hipster/internal/octopusman"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/resilience"
	"hipster/internal/telemetry"
	"hipster/internal/tuning"
	"hipster/internal/workload"
)

// ErrUnknownName is wrapped by every name-keyed constructor
// (WorkloadByName, SplitterByName, MergePolicyByName,
// AutoscalePolicyByName, MitigationByName, BatchProgramByName) when the
// name is not registered; the error message lists the valid options.
var ErrUnknownName = names.ErrUnknown

// Platform types.
type (
	// Spec describes a heterogeneous platform (clusters, DVFS points,
	// calibrated power and performance).
	Spec = platform.Spec
	// ClusterSpec describes one core cluster.
	ClusterSpec = platform.ClusterSpec
	// Config is a schedulable configuration: big/small core counts for
	// the latency-critical workload plus the big-cluster frequency.
	Config = platform.Config
	// CoreKind distinguishes big from small cores.
	CoreKind = platform.CoreKind
	// FreqMHz is a DVFS operating point.
	FreqMHz = platform.FreqMHz
	// PowerBreakdown is a per-channel power reading.
	PowerBreakdown = platform.Breakdown
	// EnergyMeter integrates power over time.
	EnergyMeter = platform.EnergyMeter
)

// Core kinds.
const (
	Big   = platform.Big
	Small = platform.Small
)

// Workload and load-generation types.
type (
	// Workload models a latency-critical application (service demand,
	// QoS target, calibration knobs).
	Workload = workload.Model
	// Pattern yields offered load over time as a fraction of maximum.
	Pattern = loadgen.Pattern
	// Diurnal is the day/night load cycle of Figure 1.
	Diurnal = loadgen.Diurnal
	// Ramp is the linear load ramp of Figure 8.
	Ramp = loadgen.Ramp
	// Spike injects rectangular load bursts.
	Spike = loadgen.Spike
	// ConstantLoad holds a flat load fraction.
	ConstantLoad = loadgen.Constant
	// TraceLoad replays a sampled load trace.
	TraceLoad = loadgen.Trace
)

// Policy and manager types.
type (
	// Policy decides the next configuration from an observation.
	Policy = policy.Policy
	// Observation is what the QoS monitor reports each interval.
	Observation = policy.Observation
	// StaticPolicy pins a fixed configuration.
	StaticPolicy = policy.Static
	// Manager is the Hipster hybrid task manager.
	Manager = core.Manager
	// Params are Hipster's tunables (alpha, gamma, zones, buckets...).
	Params = core.Params
	// Variant selects HipsterIn or HipsterCo.
	Variant = core.Variant
	// OctopusMan is the HPCA 2015 baseline task manager.
	OctopusMan = octopusman.Manager
	// HeuristicMapper is Hipster's heuristic policy used stand-alone.
	HeuristicMapper = heuristic.Mapper
)

// Hipster variants.
const (
	// HipsterIn minimises system power (interactive-only).
	HipsterIn = core.In
	// HipsterCo maximises collocated batch throughput.
	HipsterCo = core.Co
)

// Batch and telemetry types.
type (
	// BatchProgram models one throughput-oriented co-runner.
	BatchProgram = batch.Program
	// BatchRunner executes a batch mix on granted cores.
	BatchRunner = batch.Runner
	// Trace is a recorded run (per-interval samples plus metrics).
	Trace = telemetry.Trace
	// Sample is one monitoring interval's measurements.
	Sample = telemetry.Sample
	// Summary holds a run's headline metrics (QoS guarantee, energy,
	// migrations...), as in the paper's Table 3.
	Summary = telemetry.Summary
)

// Simulation types.
type (
	// Simulation drives the interval loop binding platform, workload,
	// batch jobs, and policy.
	Simulation = engine.Engine
	// SimOptions configure a simulation run.
	SimOptions = engine.Options
)

// Cluster-scale simulation types.
type (
	// Cluster steps a fleet of per-node simulations under one
	// datacenter-level load pattern, in parallel across a worker pool,
	// with bit-identical results regardless of worker count.
	Cluster = cluster.Cluster
	// ClusterOptions configure a cluster run.
	ClusterOptions = cluster.Options
	// ClusterNode describes one node of the fleet.
	ClusterNode = cluster.NodeOptions
	// ClusterResult bundles the merged fleet trace with per-node traces.
	ClusterResult = cluster.Result
	// LoadSplitter carves fleet-level load into per-node offered RPS.
	LoadSplitter = cluster.Splitter
	// SplitContext is the per-interval input to a LoadSplitter; custom
	// splitters implement LoadSplitter over it.
	SplitContext = cluster.SplitContext
	// NodeState is the per-node feedback a splitter may consult.
	NodeState = cluster.NodeState
	// FleetTrace is the per-interval fleet aggregate record.
	FleetTrace = telemetry.FleetTrace
	// FleetSample is one interval's fleet-wide aggregate.
	FleetSample = telemetry.FleetSample
	// FleetSummary holds a cluster run's headline metrics.
	FleetSummary = telemetry.FleetSummary
)

// Federation types: fleet-wide sharing of the per-node RL lookup
// tables. With FederationOptions set on ClusterOptions, the cluster
// coordinator periodically collects each Hipster-managed node's table
// delta (its learning since the last sync), merges the deltas under a
// pluggable policy, and broadcasts the merged fleet table back — so the
// fleet converges on a shared state machine faster than N independent
// learners rediscovering it.
type (
	// FederationOptions configure table sharing on a cluster: the sync
	// interval, the merge policy, and the staleness bound K intervals
	// after which a node's unsynced deltas are discarded.
	FederationOptions = cluster.FederationOptions
	// MergePolicy selects how per-node deltas fold into the fleet
	// table.
	MergePolicy = federation.MergePolicy
	// FederationStats counts sync rounds, reports, merged experience
	// and staleness discards.
	FederationStats = federation.Stats
)

// Merge policies.
const (
	// MergeVisitWeighted averages reported values weighted by visit
	// counts (federated averaging; the default).
	MergeVisitWeighted = federation.VisitWeighted
	// MergeMaxConfidence takes each cell from the round's most-visited
	// reporter.
	MergeMaxConfidence = federation.MaxConfidence
	// MergeNewestWins takes each cell from the round's last reporter.
	MergeNewestWins = federation.NewestWins
)

// MergePolicyByName returns a merge policy ("visit-weighted",
// "max-confidence" or "newest-wins").
func MergePolicyByName(name string) (MergePolicy, error) {
	return federation.MergePolicyByName(name)
}

// Autoscaling types: elastic sizing of the active node set. With
// AutoscaleOptions set on ClusterOptions, the cluster coordinator asks
// a scaling policy each interval how many nodes the demand needs and
// grows or shrinks the fleet within bounds (scale-ups are immediate;
// scale-downs wait out a cooldown and hysteresis). Sleeping nodes
// consume neither power nor node-intervals, and with federation
// enabled a joining node is warm-started from the fleet table while a
// departing node flushes its learning into it first.
type (
	// AutoscaleOptions configure elastic sizing on either fleet; only a
	// ClusterDES models the node warm-up (WarmupIntervals,
	// WarmupFactor), and NewCluster rejects a non-zero one.
	AutoscaleOptions = cluster.AutoscaleOptions
	// AutoscalePolicy proposes a desired active-node count each
	// interval; custom policies implement it over AutoscaleContext.
	AutoscalePolicy = autoscale.Policy
	// AutoscaleContext is the per-interval input to a scaling policy.
	AutoscaleContext = autoscale.Context
	// AutoscaleNodeInfo is one roster entry of an AutoscaleContext.
	AutoscaleNodeInfo = autoscale.NodeInfo
	// AutoscaleStats counts scale events, node-intervals consumed, and
	// federation warm-starts/flushes over a run.
	AutoscaleStats = autoscale.Stats
)

// Cluster DES types: the request-level counterpart of the interval
// cluster. A ClusterDES generates requests fleet-wide from the load
// pattern, routes each one through the configured LoadSplitter at
// arrival time, and carries its latency end to end through per-node
// queues — so cross-node queueing and tail amplification, which the
// interval model collapses into one aggregate number per node, are
// simulated request by request. On top of that visibility it offers
// straggler mitigation on in-flight requests (hedged requests,
// cross-node work stealing, predictive slow-node detection), node
// warm-up after autoscale activations, the queue-depth scaling signal,
// and deterministic fault injection (FaultOptions). Runs are
// bit-identical for a given seed at any worker count, like the interval
// cluster.
type (
	// ClusterDES is the fleet-wide discrete-event simulator.
	ClusterDES = clusterdes.Fleet
	// ClusterDESOptions configure a cluster DES run.
	ClusterDESOptions = clusterdes.Options
	// ClusterDESNode describes one node of the DES fleet (spec,
	// workload, fixed configuration).
	ClusterDESNode = clusterdes.NodeConfig
	// ClusterDESResult bundles a DES run: fleet trace, node traces, the
	// end-to-end latency distribution, and mitigation/scaling stats.
	ClusterDESResult = clusterdes.Result
	// RequestLatency is the end-to-end request-latency distribution of
	// a cluster DES run.
	RequestLatency = clusterdes.LatencySummary
	// ClusterDESStats counts a DES run's mitigation and scaling
	// activity.
	ClusterDESStats = clusterdes.Stats
	// FaultOptions configure deterministic fault injection for a cluster
	// DES run (set on ClusterDESOptions.Faults): node crashes with state
	// loss, slow-node degradation, network partitions, and spot-pool
	// revocation with a drain-notice window. The schedule is drawn up
	// front from its own seeded sub-stream, so fault-enabled runs stay a
	// pure function of (Seed, Domains) at any worker count. Rates draw a
	// random schedule; Script replaces generation with explicit events.
	FaultOptions = faults.Options
	// FaultEvent is one scripted fault transition (FaultOptions.Script):
	// the kind fires at a 1-based monitoring-interval boundary, in the
	// coordinator's serial section.
	FaultEvent = faults.Event
	// FaultKind identifies a fault-schedule transition
	// (crash/recover, slow-start/end, partition-start/end,
	// revoke-notice/revoke/restore).
	FaultKind = faults.Kind
	// Mitigation is a straggler-mitigation policy applied to in-flight
	// requests at the DES front-end.
	Mitigation = clusterdes.Mitigation
	// ClusterDESLearn closes Hipster's RL loop inside the cluster DES:
	// with it set on ClusterDESOptions, every node consults its own
	// policy at each interval boundary — in the coordinator's serial
	// section, after the interval's measured per-request tail is final —
	// and applies the returned configuration to the next interval. The
	// reward is computed from measured request latencies, the signal the
	// paper's testbed used, where the interval cluster can only offer
	// its analytic tail estimate. Learning preserves the DES determinism
	// contract: runs stay a pure function of (Seed, Domains) at any
	// worker count. See examples/deslearning for a DES-trained vs
	// interval-trained comparison.
	ClusterDESLearn = clusterdes.LearnOptions
	// ResilienceOptions configure the DES request path's resilience
	// layer (set on ClusterDESOptions.Resilience): bounded retries with
	// exponential backoff, per-attempt deadlines that free server
	// slots, per-node token-bucket admission, a per-node circuit
	// breaker rolled at interval boundaries, losing-hedge cancellation,
	// and per-node per-interval hedge budgets. All of it is
	// deterministic: policy decisions happen inside the event loop or
	// the coordinator's serial section, so runs stay a pure function of
	// (Seed, Domains) at any worker count.
	ResilienceOptions = resilience.Options
	// RetryBackoff is the exponential-backoff schedule for DES retries
	// (base doubling per attempt up to a cap, with seeded
	// proportional jitter).
	RetryBackoff = resilience.Backoff
	// BreakerOptions configure the per-node circuit breaker: a
	// windowed failure-rate threshold opens the breaker, a fixed
	// open countdown leads to a half-open probe phase, and clean
	// probes close it again.
	BreakerOptions = resilience.BreakerOptions
	// RateLimitOptions configure per-node token-bucket admission
	// control (sustained requests/second plus a burst allowance).
	RateLimitOptions = resilience.RateLimitOptions
)

// Fault-schedule transition kinds, for FaultOptions.Script events. See
// the FaultKind alias and the faults package documentation for the
// semantics of each transition.
const (
	// FaultCrash takes a node down instantly; its queued and in-flight
	// work is lost and its policy state is gone.
	FaultCrash = faults.Crash
	// FaultRecover returns a crashed node to service.
	FaultRecover = faults.Recover
	// FaultSlowStart degrades a node's service rate by Event.Factor.
	FaultSlowStart = faults.SlowStart
	// FaultSlowEnd restores the degraded node's nominal rate.
	FaultSlowEnd = faults.SlowEnd
	// FaultPartitionStart severs the fleet into sides [0, Cut) and
	// [Cut, nodes).
	FaultPartitionStart = faults.PartitionStart
	// FaultPartitionEnd heals the partition.
	FaultPartitionEnd = faults.PartitionEnd
	// FaultRevokeNotice opens a spot node's drain window.
	FaultRevokeNotice = faults.RevokeNotice
	// FaultRevoke takes the spot node down when the window expires.
	FaultRevoke = faults.Revoke
	// FaultRestore returns a revoked spot node to the pool.
	FaultRestore = faults.Restore
)

// Offline tuning types: a deterministic parallel search over the
// learn-enabled cluster DES. Tune hill-climbs a typed parameter space
// (RL hyperparameters, hedge quantile, routing domains, federation
// sync interval, autoscale target, mitigation policy) with random
// restarts, evaluating every candidate across several training seeds
// on a worker pool and scoring a weighted tail + QoS + energy
// objective. Because each evaluation is a pure function of (seed,
// config) and search decisions consume a dedicated seeded stream, the
// same TuneOptions reproduce the same TuneResult — and the same JSON
// artifact byte for byte — at any worker count. The cmd/hipster tune
// subcommand writes that artifact and cluster -mode=des -tuned replays
// its winner.
type (
	// ParamSpace is the typed search space: an ordered set of bounded
	// dimensions.
	ParamSpace = tuning.Space
	// ParamDimension is one axis of a ParamSpace — continuous or
	// discrete with [Min, Max] bounds, or categorical over an explicit
	// value set.
	ParamDimension = tuning.Dimension
	// ParamKind classifies a ParamDimension (continuous, discrete,
	// categorical).
	ParamKind = tuning.Kind
	// TunePoint is one configuration of a ParamSpace, one value per
	// dimension in space order.
	TunePoint = tuning.Point
	// TuneSetting is one dimension binding of the JSON artifact.
	TuneSetting = tuning.Setting
	// TuneWeights parameterise the scalar objective, including the
	// optional soft energy budget (PowerCapW).
	TuneWeights = tuning.Weights
	// TuneOptions configure a Tune run: space, evaluator, training
	// seeds, search budget and objective weights.
	TuneOptions = tuning.Options
	// TuneResult is a finished search: the winning configuration, the
	// untuned baseline, and the full evaluation ledger — serializable
	// as the reproducible tuning artifact.
	TuneResult = tuning.Result
	// TuneEvaluation is one ledger entry: a deduplicated candidate with
	// per-seed metrics and its aggregate score.
	TuneEvaluation = tuning.Evaluation
	// TuneMetrics are the objective inputs one evaluation produces
	// (tail latency, QoS attainment, energy), as returned by
	// EvaluateClusterDES.
	TuneMetrics = tuning.Metrics
	// TuneEvaluator is the single-point evaluation function the search
	// calls; it must be pure in (point, seed).
	TuneEvaluator = tuning.Evaluator
	// TuneFleetEvaluator maps points of DefaultParamSpace onto concrete
	// learn-enabled cluster DES runs; its FleetOptions method is also
	// how a tuning artifact is replayed as a ClusterDESOptions.
	TuneFleetEvaluator = tuning.FleetEvaluator
)

// Parameter-dimension kinds for ParamDimension.Kind.
const (
	// ParamContinuous dimensions take any float in [Min, Max].
	ParamContinuous = tuning.Continuous
	// ParamDiscrete dimensions take integer values in [Min, Max].
	ParamDiscrete = tuning.Discrete
	// ParamCategorical dimensions take one of an explicit value set.
	ParamCategorical = tuning.Categorical
)

// Tune runs the offline search: seeded hill-climbing with random
// restarts over the option's ParamSpace, candidates evaluated across
// the training seeds in parallel. Same options, same result, at any
// worker count.
func Tune(o TuneOptions) (TuneResult, error) { return tuning.Tune(o) }

// DefaultParamSpace returns the search space over the learn-enabled
// cluster DES for a fleet of the given size: Hipster's RL
// hyperparameters, the hedge quantile, routing domains, the federation
// sync interval, the autoscale utilisation target, and the mitigation
// policy. Its default point is the untuned CLI configuration.
func DefaultParamSpace(nodes int) (ParamSpace, error) { return tuning.DefaultSpace(nodes) }

// DefaultTuneWeights returns the documented objective defaults (no
// energy budget).
func DefaultTuneWeights() TuneWeights { return tuning.DefaultWeights() }

// DefaultTuneFleet returns the tuner's default evaluation fleet (6
// Web-Search nodes, 300-s evaluations, autoscale floor 2, the bursty
// training day); a TuneFleetEvaluator fills its unset fields from it.
func DefaultTuneFleet() TuneFleetEvaluator { return tuning.DefaultFleet() }

// ReadTuneResult loads a tuning artifact written by TuneResult's
// WriteFile, validating its space and winner.
func ReadTuneResult(path string) (TuneResult, error) { return tuning.ReadFile(path) }

// EvaluateClusterDES builds a fleet from opts, runs it for horizon
// simulated seconds, and folds the run into TuneMetrics — the
// single-point evaluation the tuner fans out across its worker pool.
func EvaluateClusterDES(opts ClusterDESOptions, horizon float64) (TuneMetrics, error) {
	return clusterdes.Evaluate(opts, horizon)
}

// NewClusterDES builds a fleet discrete-event simulation from options.
func NewClusterDES(opts ClusterDESOptions) (*ClusterDES, error) { return clusterdes.New(opts) }

// UniformClusterDESNodes builds n identical DES node definitions over
// one spec and workload at the default (all big cores, maximum DVFS)
// configuration.
func UniformClusterDESNodes(n int, spec *Spec, wl *Workload) ([]ClusterDESNode, error) {
	return clusterdes.Uniform(n, spec, wl)
}

// NewHedgedMitigation returns the hedged-requests mitigation: re-issue
// a request to a second node once it has been outstanding longer than
// the given quantile of recently observed latencies, first response
// wins (quantile <= 0 uses the 0.95 default).
func NewHedgedMitigation(quantile float64) Mitigation {
	if quantile <= 0 {
		return clusterdes.Hedged{}
	}
	return clusterdes.Hedged{Quantile: quantile}
}

// NewWorkStealingMitigation returns the cross-node work-stealing
// mitigation: an idle node pulls the oldest request from the deepest
// queue in the fleet, if that queue holds at least two requests.
func NewWorkStealingMitigation() Mitigation { return clusterdes.WorkStealing{} }

// NewPredictiveMitigation returns the predictive straggler mitigation:
// hedged requests plus a per-node EWMA of the backlog drain estimate
// that flags suspects against the fleet median, drains their queues by
// migration, excludes them as hedge targets and hedges their requests
// early — before the reactive completed-sojourn signal can observe the
// degradation. The quantile is the reactive hedge delay inherited from
// Hedged (quantile <= 0 uses the 0.95 default). The detector itself
// has one design point: EWMA smoothing 0.4, suspicion at 3x the fleet
// median, and suspects' requests hedged after a quarter of the
// reactive delay.
func NewPredictiveMitigation(quantile float64) Mitigation {
	if quantile <= 0 {
		return clusterdes.Predictive{}
	}
	return clusterdes.Predictive{Quantile: quantile}
}

// MitigationByName returns a built-in straggler mitigation ("none",
// "hedged", "work-stealing" or "predictive").
func MitigationByName(name string) (Mitigation, error) { return clusterdes.MitigationByName(name) }

// NewQueueDepthPolicy returns the queue-depth scaling policy with its
// default thresholds: add a node as soon as the mean per-node queue
// depth crosses the threshold, reclaim only when queues are empty. The
// leading-indicator signal needs request-level visibility, so it is
// most meaningful under the cluster DES mode (the interval cluster
// feeds it the carried backlog instead).
func NewQueueDepthPolicy() AutoscalePolicy { return autoscale.QueueDepth{} }

// NewTargetUtilizationPolicy returns the load-following scaling policy:
// size the active set so demand lands at the target fraction of active
// capacity (target <= 0 uses the 0.7 default).
func NewTargetUtilizationPolicy(target float64) AutoscalePolicy {
	return autoscale.TargetUtilization{Target: target}
}

// NewQoSHeadroomPolicy returns the QoS-driven scaling policy with its
// default watermarks: any active node missing its tail-latency target
// adds a node immediately; capacity is reclaimed only when the fleet is
// clean and the demand fits the smaller set comfortably.
func NewQoSHeadroomPolicy() AutoscalePolicy { return autoscale.QoSHeadroom{} }

// AutoscalePolicyByName returns a built-in scaling policy
// ("target-utilization", "qos-headroom" or "queue-depth").
func AutoscalePolicyByName(name string) (AutoscalePolicy, error) {
	return autoscale.PolicyByName(name)
}

// NewCluster builds a fleet simulation from options.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// UniformClusterNodes builds n identical node definitions over one spec
// and workload, calling build for each node's policy (policies are
// stateful and must not be shared between nodes).
func UniformClusterNodes(n int, spec *Spec, wl *Workload, build func(nodeID int) (Policy, error)) ([]ClusterNode, error) {
	return cluster.Uniform(n, spec, wl, build)
}

// NewRoundRobinSplitter returns the capacity-oblivious equal-share
// front-end.
func NewRoundRobinSplitter() LoadSplitter { return cluster.RoundRobin{} }

// NewCapacitySplitter returns the front-end that loads every node to an
// equal fraction of its capacity.
func NewCapacitySplitter() LoadSplitter { return cluster.WeightedByCapacity{} }

// NewLeastLoadedSplitter returns the feedback-driven front-end that
// routes load towards free capacity and away from QoS violators.
func NewLeastLoadedSplitter() LoadSplitter { return cluster.LeastLoaded{} }

// SplitterByName returns a built-in splitter ("round-robin",
// "weighted-by-capacity" or "least-loaded").
func SplitterByName(name string) (LoadSplitter, error) { return cluster.SplitterByName(name) }

// JunoR1 returns the model of the paper's evaluation platform: an ARM
// Juno R1 big.LITTLE board calibrated to Table 2.
func JunoR1() *Spec { return platform.JunoR1() }

// Memcached returns the paper's Memcached workload model (36 000 RPS
// maximum, 10 ms p95 target).
func Memcached() *Workload { return workload.Memcached() }

// WebSearch returns the paper's Web-Search (Elasticsearch) workload
// model (44 QPS maximum, 500 ms p90 target).
func WebSearch() *Workload { return workload.WebSearch() }

// WorkloadByName returns a built-in workload model ("memcached" or
// "websearch").
func WorkloadByName(name string) (*Workload, error) { return workload.ByName(name) }

// DefaultDiurnal returns the paper's compressed-day load pattern.
func DefaultDiurnal() Diurnal { return loadgen.DefaultDiurnal() }

// NewTracePattern builds a load pattern that replays samples (fractions
// of maximum load) spaced stepSecs apart, interpolating linearly.
func NewTracePattern(stepSecs float64, samples []float64) (TraceLoad, error) {
	return loadgen.NewTrace(stepSecs, samples)
}

// Configs enumerates the platform's canonical configuration space (the
// 13 states of Figure 2c on Juno R1).
func Configs(spec *Spec) []Config { return platform.Configs(spec) }

// DefaultParams returns Hipster's paper-default parameters.
func DefaultParams() Params { return core.DefaultParams() }

// NewHipsterIn builds the power-minimising Hipster manager.
func NewHipsterIn(spec *Spec, params Params, seed int64) (*Manager, error) {
	return core.New(core.In, spec, params, seed)
}

// NewHipsterCo builds the collocation Hipster manager.
func NewHipsterCo(spec *Spec, params Params, seed int64) (*Manager, error) {
	return core.New(core.Co, spec, params, seed)
}

// NewOctopusMan builds the Octopus-Man baseline with its swept default
// thresholds.
func NewOctopusMan(spec *Spec) (*OctopusMan, error) {
	return octopusman.New(spec, octopusman.DefaultParams())
}

// NewHeuristicMapper builds Hipster's heuristic mapper as a stand-alone
// policy.
func NewHeuristicMapper(spec *Spec) (*HeuristicMapper, error) {
	return heuristic.New(spec, heuristic.DefaultParams())
}

// NewStaticBig returns the all-big-cores baseline policy.
func NewStaticBig(spec *Spec) *StaticPolicy { return policy.NewStaticBig(spec) }

// NewStaticSmall returns the all-small-cores baseline policy.
func NewStaticSmall(spec *Spec) *StaticPolicy { return policy.NewStaticSmall(spec) }

// NewOracle returns the perfect-knowledge scheduler used as the upper
// bound on achievable energy savings: each interval it picks the
// least-power configuration that deterministically meets the QoS target
// at the observed load, derated by headroom (e.g. 0.05).
func NewOracle(spec *Spec, wl *Workload, headroom float64) *policy.Oracle {
	return policy.NewOracle(spec, wl, headroom)
}

// SPEC2006 returns the twelve SPEC CPU 2006 batch program models of
// Figure 11.
func SPEC2006() []BatchProgram { return batch.SPEC2006() }

// BatchProgramByName returns one SPEC CPU 2006 model by name.
func BatchProgramByName(name string) (BatchProgram, error) {
	return batch.ProgramByName(name)
}

// NewBatchRunner builds a batch runner over a program mix.
func NewBatchRunner(programs []BatchProgram) (*BatchRunner, error) {
	return batch.NewRunner(programs)
}

// NewSimulation builds a simulation from options.
func NewSimulation(opts SimOptions) (*Simulation, error) {
	return engine.New(opts)
}
