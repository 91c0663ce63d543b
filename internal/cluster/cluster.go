// Package cluster scales the single-node simulation to a fleet: a
// Cluster owns N per-node engines (heterogeneous specs and workloads
// allowed), a pluggable front-end splitter that carves a
// datacenter-level load pattern into per-node offered load each
// monitoring interval, and a worker pool that steps all nodes in
// parallel. Every node draws from its own deterministic RNG stream
// (derived as seed + nodeID) and the split/merge steps run serially in
// the coordinator, so cluster results are bit-identical regardless of
// how many workers step the nodes.
package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"

	"hipster/internal/batch"
	"hipster/internal/engine"
	"hipster/internal/federation"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/sim"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// NodeOptions describe one node of the fleet. Policies and batch
// runners are stateful and must not be shared between nodes.
type NodeOptions struct {
	Spec     *platform.Spec
	Workload *workload.Model
	Policy   policy.Policy

	// Batch, when non-nil, collocates batch jobs on the cores this
	// node's LC configuration leaves free (HipsterCo's objective).
	Batch *batch.Runner
}

// Options configure a cluster run.
type Options struct {
	// Nodes is the fleet definition; at least one node.
	Nodes []NodeOptions

	// Pattern is the datacenter-level offered load as a fraction of
	// total fleet capacity (the sum of node capacities).
	Pattern loadgen.Pattern

	// Splitter carves the fleet load into per-node offered RPS each
	// interval (default WeightedByCapacity).
	Splitter Splitter

	// Workers is the number of goroutines stepping nodes in parallel;
	// 0 means GOMAXPROCS. Results do not depend on this value.
	Workers int

	// Seed drives the whole fleet: node i's engine is seeded with
	// Seed + i, giving every node an independent deterministic stream.
	Seed int64

	// Federation, when non-nil, periodically merges the per-node RL
	// lookup tables into one fleet table and broadcasts it back, so the
	// fleet converges on a shared state machine instead of N
	// independent rediscoveries. Requires at least one node whose
	// policy exposes a table (the Hipster manager); the sync round runs
	// serially in the coordinator, preserving worker-invariance.
	Federation *FederationOptions

	// Autoscale, when non-nil, grows and shrinks the active node set
	// each interval instead of running the whole roster: the splitter
	// routes only over active nodes, sleeping nodes consume neither
	// power nor node-intervals, and (with Federation set) nodes joining
	// the fleet are warm-started from the fleet table while departing
	// nodes flush their learning into it. Decisions run in the
	// coordinator's serial section, preserving worker-invariance.
	Autoscale *AutoscaleOptions
}

// feed is the per-node load pattern shim: the coordinator stores the
// node's split share into frac before the node steps, so each engine
// sees exactly the load the front-end routed to it.
type feed struct{ frac float64 }

// LoadAt implements loadgen.Pattern.
func (f *feed) LoadAt(float64) float64 { return f.frac }

// Duration implements loadgen.Pattern (the cluster supplies the
// horizon).
func (f *feed) Duration() float64 { return 0 }

// node pairs an engine with its routing state.
type node struct {
	eng   *engine.Engine
	feed  *feed
	state NodeState
	// lastEnergyJ is the node's cumulative energy as of its most recent
	// step; it persists while the node sleeps, so the fleet's cumulative
	// energy does not forget a deactivated node's consumption.
	lastEnergyJ float64
}

// Cluster steps a fleet of engines under one datacenter-level load
// pattern. It is not safe for concurrent use; internally it fans each
// interval's node stepping out to a worker pool.
type Cluster struct {
	opts     Options
	splitter Splitter
	workers  int
	nodes    []*node
	fleetCap float64

	clock  *sim.Clock
	fleet  *telemetry.FleetTrace
	merger telemetry.Merger
	fed    *Federation
	scaler *Scaler

	// active is the active-node count: the active set is always the
	// roster prefix nodes[:active] (the whole roster without
	// autoscaling).
	active int
	// nodeIntervals counts the active node-intervals stepped so far.
	nodeIntervals int

	// failed latches the first Step error: some engines may already
	// have stepped and recorded that interval, so the fleet is
	// desynchronized and must not be stepped again.
	failed error

	// per-interval scratch, indexed by node
	states  []NodeState
	samples []telemetry.Sample
	errs    []error

	// Persistent worker pool (see Pool): rather than spawning one
	// goroutine per worker per Step, the pool is started once (lazily,
	// on the first parallel Step) and woken each interval. Workers
	// claim node indices from an atomic counter and write only their
	// node's slot of the scratch slices, so scheduling order cannot
	// affect results (worker-invariance is unchanged from the
	// spawn-per-step design).
	pool *Pool
	// stepFn is the per-node step closure handed to the pool; built
	// once so the hot Step path allocates nothing per interval.
	stepFn     func(i int)
	stepActive []*node
}

// New validates options and builds a cluster.
func New(opts Options) (*Cluster, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if opts.Pattern == nil {
		return nil, errors.New("cluster: nil load pattern")
	}
	if opts.Workers < 0 {
		return nil, errors.New("cluster: negative worker count")
	}
	c := &Cluster{
		opts:     opts,
		splitter: opts.Splitter,
		workers:  opts.Workers,
		fleet:    &telemetry.FleetTrace{},
	}
	if c.splitter == nil {
		c.splitter = WeightedByCapacity{}
	}
	if c.workers == 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	c.clock = sim.NewClock()

	seen := make(map[policy.Policy]int, len(opts.Nodes))
	seenBatch := make(map[*batch.Runner]int)
	for i, no := range opts.Nodes {
		// Policies of a non-comparable dynamic type cannot be checked
		// for sharing (they would panic as map keys); they are also
		// impossible to accidentally alias without a pointer, so skip.
		if no.Policy != nil && reflect.TypeOf(no.Policy).Comparable() {
			if j, dup := seen[no.Policy]; dup {
				return nil, fmt.Errorf("cluster: nodes %d and %d share one policy instance; policies are stateful and need one instance per node", j, i)
			}
			seen[no.Policy] = i
		}
		if no.Batch != nil {
			if j, dup := seenBatch[no.Batch]; dup {
				return nil, fmt.Errorf("cluster: nodes %d and %d share one batch runner; runners are stateful and need one instance per node", j, i)
			}
			seenBatch[no.Batch] = i
		}
		f := &feed{}
		eng, err := engine.New(engine.Options{
			Spec:     no.Spec,
			Workload: no.Workload,
			Pattern:  f,
			Policy:   no.Policy,
			Batch:    no.Batch,
			Seed:     opts.Seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		cap := no.Workload.RPSAt(1)
		c.nodes = append(c.nodes, &node{
			eng:  eng,
			feed: f,
			state: NodeState{
				ID:          i,
				CapacityRPS: cap,
			},
		})
		c.fleetCap += cap
	}
	if opts.Federation != nil {
		pols := make([]policy.Policy, len(opts.Nodes))
		for i, def := range opts.Nodes {
			pols[i] = def.Policy
		}
		fed, err := NewFederation(*opts.Federation, pols)
		if err != nil {
			return nil, err
		}
		c.fed = fed
	}
	c.active = len(c.nodes)
	if opts.Autoscale != nil {
		scaler, initial, err := NewScaler(*opts.Autoscale, len(c.nodes))
		if err != nil {
			return nil, err
		}
		c.scaler = scaler
		c.active = initial
	}
	for i, n := range c.nodes {
		n.state.Active = i < c.active
	}
	c.states = make([]NodeState, len(c.nodes))
	c.samples = make([]telemetry.Sample, len(c.nodes))
	c.errs = make([]error, len(c.nodes))
	return c, nil
}

// fail latches err so the desynchronized fleet cannot be stepped again.
func (c *Cluster) fail(err error) (telemetry.FleetSample, error) {
	c.failed = err
	return telemetry.FleetSample{}, err
}

// NumNodes returns the fleet size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Workers returns the resolved worker-pool size (never zero).
func (c *Cluster) Workers() int { return c.workers }

// CapacityRPS returns the total fleet capacity.
func (c *Cluster) CapacityRPS() float64 { return c.fleetCap }

// Fleet returns the merged fleet trace recorded so far.
func (c *Cluster) Fleet() *telemetry.FleetTrace { return c.fleet }

// NodeTrace returns node i's per-interval trace.
func (c *Cluster) NodeTrace(i int) *telemetry.Trace { return c.nodes[i].eng.Trace() }

// Step advances the whole fleet by one monitoring interval: decide the
// active node set (when autoscaling), split the fleet-level load over
// it, step every active node (in parallel across the worker pool), and
// merge the per-node samples into one fleet sample. After an error the
// cluster is desynchronized (engines that stepped cleanly have recorded
// an interval the fleet trace lacks) and every further Step returns the
// same error.
func (c *Cluster) Step() (telemetry.FleetSample, error) {
	if c.failed != nil {
		return telemetry.FleetSample{}, c.failed
	}
	t := c.clock.Now()
	load := c.opts.Pattern.LoadAt(t)
	totalRPS := load * c.fleetCap

	// The scaling decision sees this interval's demand before the split,
	// so a burst can be answered by new capacity in the same interval it
	// arrives.
	if c.scaler != nil {
		if err := c.autoscaleStep(t, totalRPS); err != nil {
			return c.fail(err)
		}
	}

	active := c.nodes[:c.active]
	states := c.states[:c.active]
	for i, n := range active {
		states[i] = n.state
	}
	shares, err := SplitChecked(c.splitter, load, SplitContext{
		Interval: c.clock.Steps(),
		T:        t,
		TotalRPS: totalRPS,
		Nodes:    states,
	})
	if err != nil {
		return c.fail(fmt.Errorf("cluster: %w", err))
	}
	for i, n := range active {
		// The feed is a load fraction of this node's own capacity;
		// overload (> 1) is passed through so routing mistakes surface
		// as backlog and stragglers rather than silently shed load.
		n.feed.frac = shares[i] / n.state.CapacityRPS
	}

	c.stepNodes()
	for i, err := range c.errs[:c.active] {
		if err != nil {
			return c.fail(fmt.Errorf("cluster: node %d: %w", i, err))
		}
	}

	c.clock.Tick()
	for i, n := range active {
		n.state.Observe(c.samples[i])
		n.lastEnergyJ = c.samples[i].EnergyJ
	}
	// Federation runs in the serial section, after every node finished
	// its step: the worker pool is quiescent, so reading and rewriting
	// the per-node tables here cannot race with policy decisions, and
	// results stay independent of the worker count. Sleeping nodes sit
	// the round out — they flushed their delta on deactivation and are
	// re-seeded from the fleet table when they rejoin.
	if c.fed != nil && c.fed.Due(c.clock.Steps()) {
		if err := c.fed.Sync(c.clock.Steps(), c.isActive); err != nil {
			return c.fail(err)
		}
	}
	fs := c.merger.MergeInterval(c.samples[:c.active])
	// A node activated mid-run carries a local clock that lags fleet
	// time (it does not tick while asleep), so the fleet sample is
	// stamped with the fleet clock rather than any node's.
	fs.T = c.clock.Now()
	// The merge sums cumulative energy over the active samples only; a
	// node asleep this interval consumed no new energy but still burned
	// joules earlier in the run, so the fleet cumulative is re-derived
	// over the whole roster (bit-identical to the merge when every node
	// is active, and monotonic under autoscaling).
	var energy float64
	for _, n := range c.nodes {
		energy += n.lastEnergyJ
	}
	fs.EnergyJ = energy
	c.nodeIntervals += c.active
	c.fleet.Add(fs)
	return fs, nil
}

// isActive reports whether a node is in the active set.
func (c *Cluster) isActive(id int) bool { return id < c.active }

// FederationStats returns the federation coordinator's activity
// counters; ok is false when federation is disabled.
func (c *Cluster) FederationStats() (stats federation.Stats, ok bool) {
	if c.fed == nil {
		return federation.Stats{}, false
	}
	return c.fed.Stats(), true
}

// stepNodes steps every node once, fanning out across the persistent
// worker pool. Each node is touched by exactly one goroutine per
// interval and writes only its own slot of the scratch slices, and
// every node's stochastic state lives in its own engine, so scheduling
// order cannot affect results.
func (c *Cluster) stepNodes() {
	active := c.nodes[:c.active]
	if c.workers <= 1 || len(active) <= 1 {
		for i, n := range active {
			c.samples[i], c.errs[i] = n.eng.Step()
		}
		return
	}
	c.stepActive = active
	if c.pool == nil {
		c.pool = NewPool(c.workers)
	}
	if c.stepFn == nil {
		c.stepFn = func(i int) {
			c.samples[i], c.errs[i] = c.stepActive[i].eng.Step()
		}
	}
	c.pool.Do(len(active), c.stepFn)
}

// Close retires the worker pool. It is idempotent and safe to call on a
// never-parallelised cluster; Run closes the pool itself, so an
// explicit Close is only needed when driving the cluster Step by Step —
// and even then a dropped cluster's pool is retired by the garbage
// collector. A closed cluster may be stepped again: the next parallel
// Step simply starts a fresh pool.
func (c *Cluster) Close() {
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
}

// Result bundles a finished cluster run: the merged fleet trace plus
// every node's own trace, in node order.
type Result struct {
	Fleet *telemetry.FleetTrace
	Nodes []*telemetry.Trace
}

// Summarize computes the fleet's headline metrics.
func (r Result) Summarize() telemetry.FleetSummary { return r.Fleet.Summarize() }

// Run executes the cluster for the given horizon (seconds); a zero
// horizon uses the pattern's natural duration. Run retires the worker
// pool on return (a further Run or Step transparently restarts it).
func (c *Cluster) Run(horizon float64) (Result, error) {
	if horizon <= 0 {
		horizon = c.opts.Pattern.Duration()
	}
	if horizon <= 0 {
		return Result{}, errors.New("cluster: no horizon (unbounded pattern and no explicit duration)")
	}
	defer c.Close()
	for c.clock.Now() < horizon {
		if _, err := c.Step(); err != nil {
			return Result{}, err
		}
	}
	res := Result{Fleet: c.fleet, Nodes: make([]*telemetry.Trace, len(c.nodes))}
	for i, n := range c.nodes {
		res.Nodes[i] = n.eng.Trace()
	}
	return res, nil
}

// Uniform builds n identical node definitions over one spec and
// workload, calling build for each node's policy (policies are stateful
// and must not be shared between nodes).
func Uniform(n int, spec *platform.Spec, wl *workload.Model, build func(nodeID int) (policy.Policy, error)) ([]NodeOptions, error) {
	if n <= 0 {
		return nil, errors.New("cluster: non-positive node count")
	}
	nodes := make([]NodeOptions, n)
	for i := range nodes {
		pol, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d policy: %w", i, err)
		}
		nodes[i] = NodeOptions{Spec: spec, Workload: wl, Policy: pol}
	}
	return nodes, nil
}
