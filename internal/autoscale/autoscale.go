// Package autoscale decides, each monitoring interval, how many nodes
// of a fleet should be powered on. The cluster layer keeps the active
// set as a prefix of the node roster (node 0 is always on; scale-up
// activates the lowest-ID sleeping node, scale-down deactivates the
// highest-ID active one), so a scaling policy only has to pick a count:
// given the interval's fleet-level demand and the roster's prefix
// capacities, it returns the desired number of active nodes, and a
// Controller clamps that desire through min/max bounds, a scale-down
// cooldown, and hysteresis. Everything here is plain serial code — the
// cluster invokes it from its single-threaded coordinator section, so
// autoscaled runs stay bit-identical at any worker count.
package autoscale

import (
	"fmt"

	"hipster/internal/names"
)

// NodeInfo is the per-node roster entry a policy may consult. The Last*
// fields carry the node's previous interval (zero with Stepped false
// before the node ever ran, and Stepped is cleared when a node is
// deactivated, so a rejoining node reads as fresh).
type NodeInfo struct {
	ID          int
	CapacityRPS float64
	Active      bool

	Stepped         bool
	LastOfferedRPS  float64
	LastTailLatency float64
	LastTarget      float64
	// LastQueueDepth is the node's request queue depth at the end of
	// the previous interval. The cluster-scale DES reports the actual
	// per-node queue length; the interval-granularity cluster reports
	// the carried backlog, its closest analogue. Queue depth is the
	// leading indicator of the two tail signals: a queue is visible the
	// interval it builds, while the measured tail only crosses the
	// target once that queue's waiting time has already reached it.
	LastQueueDepth float64
}

// Violated reports whether the node missed its QoS target last interval.
func (n NodeInfo) Violated() bool {
	return n.Stepped && n.LastTarget > 0 && n.LastTailLatency > n.LastTarget
}

// Context is the input to one scaling decision, assembled by the
// cluster coordinator before the interval's load is split.
type Context struct {
	// Interval is the monitoring interval index, starting at 0.
	Interval int
	// T is the interval start time in seconds.
	T float64
	// OfferedRPS is the fleet-level demand for this interval — known
	// before the decision, so a policy can react to a burst in the same
	// interval it arrives.
	OfferedRPS float64
	// Nodes is the full roster in ascending ID order; the active set is
	// always the prefix Nodes[:Active].
	Nodes []NodeInfo
	// Active is the current active-node count.
	Active int
}

// PrefixCapacity returns the summed capacity of the first n nodes.
func (c Context) PrefixCapacity(n int) float64 {
	if n > len(c.Nodes) {
		n = len(c.Nodes)
	}
	var cap float64
	for _, node := range c.Nodes[:n] {
		cap += node.CapacityRPS
	}
	return cap
}

// nodesFor returns the smallest count whose prefix capacity serves rps
// at or below the given per-node utilisation, at least 1.
func (c Context) nodesFor(rps, util float64) int {
	need := rps / util
	var cap float64
	for n, node := range c.Nodes {
		cap += node.CapacityRPS
		if cap >= need {
			return n + 1
		}
	}
	return len(c.Nodes)
}

// Policy proposes a desired active-node count each interval. The
// Controller, not the policy, enforces bounds, cooldown and hysteresis.
// Implementations must be deterministic pure functions of the Context.
type Policy interface {
	Name() string
	Desired(ctx Context) int
}

// TargetUtilization sizes the active set so the interval's demand lands
// at the target fraction of active capacity — the classic
// load-following autoscaler.
type TargetUtilization struct {
	// Target is the desired demand / active-capacity ratio in (0, 1]
	// (default DefaultTargetUtilization).
	Target float64
}

// DefaultTargetUtilization is the demand / active-capacity ratio
// TargetUtilization aims for when Target is unset or out of range.
const DefaultTargetUtilization = 0.7

// Name implements Policy.
func (TargetUtilization) Name() string { return "target-utilization" }

// Desired implements Policy.
func (p TargetUtilization) Desired(ctx Context) int {
	target := p.Target
	if target <= 0 || target > 1 {
		target = DefaultTargetUtilization
	}
	return ctx.nodesFor(ctx.OfferedRPS, target)
}

// QoSHeadroom scales on the QoS signal itself: any active node missing
// its tail-latency target last interval adds a node immediately, while
// capacity is only reclaimed when the fleet is clean and the demand
// would still fit the smaller set below the DownUtil watermark. It
// reacts to what the latency-critical tier actually experiences rather
// than to a utilisation proxy, at the price of scaling up one interval
// after the damage shows.
type QoSHeadroom struct {
	// UpUtil is the utilisation above which capacity is added even
	// without a violation, as a backstop for the first interval of a
	// burst (default 0.85).
	UpUtil float64
	// DownUtil is the utilisation the shrunken active set must stay
	// under for a scale-down to be proposed (default 0.55).
	DownUtil float64
}

// Name implements Policy.
func (QoSHeadroom) Name() string { return "qos-headroom" }

// Desired implements Policy.
func (p QoSHeadroom) Desired(ctx Context) int {
	up := p.UpUtil
	if up <= 0 || up > 1 {
		up = 0.85
	}
	down := p.DownUtil
	if down <= 0 || down >= up {
		down = 0.55
	}
	violated := false
	for _, n := range ctx.Nodes[:ctx.Active] {
		if n.Violated() {
			violated = true
			break
		}
	}
	switch {
	case violated:
		return ctx.Active + 1
	case ctx.OfferedRPS > up*ctx.PrefixCapacity(ctx.Active):
		return ctx.nodesFor(ctx.OfferedRPS, up)
	case ctx.Active > 1 && ctx.OfferedRPS <= down*ctx.PrefixCapacity(ctx.Active-1):
		return ctx.Active - 1
	}
	return ctx.Active
}

// QueueDepth scales on the per-node request queue depth instead of a
// utilisation proxy or the measured tail: capacity is added as soon as
// the mean queued requests per active node crosses UpDepth, and
// reclaimed only when the queues are empty and the demand would fit the
// smaller set below DownUtil. A building queue is visible the interval
// it forms — before its waiting time has pushed the measured tail over
// the target, and before a warming (recently woken, degraded-rate)
// node's overload shows in any utilisation ratio computed from nominal
// capacities — so this signal leads the tail-based policies by the
// intervals the queue takes to become a latency violation. It needs
// request-level visibility (NodeInfo.LastQueueDepth) and is therefore
// most meaningful under the cluster DES mode.
type QueueDepth struct {
	// UpDepth is the mean queued requests per active node above which
	// capacity is added (default 4).
	UpDepth float64
	// DownUtil is the utilisation the shrunken active set must stay
	// under for a scale-down to be proposed, evaluated only when the
	// queues are empty (default 0.55).
	DownUtil float64
}

// Name implements Policy.
func (QueueDepth) Name() string { return "queue-depth" }

// Desired implements Policy.
func (p QueueDepth) Desired(ctx Context) int {
	up := p.UpDepth
	if up <= 0 {
		up = 4
	}
	down := p.DownUtil
	if down <= 0 || down >= 1 {
		down = 0.55
	}
	var depth float64
	for _, n := range ctx.Nodes[:ctx.Active] {
		depth += n.LastQueueDepth
	}
	switch {
	case depth > up*float64(ctx.Active):
		return ctx.Active + 1
	case ctx.Active > 1 && depth == 0 && ctx.OfferedRPS <= down*ctx.PrefixCapacity(ctx.Active-1):
		return ctx.Active - 1
	}
	return ctx.Active
}

// PolicyNames lists the built-in scaling policies as accepted by
// PolicyByName.
func PolicyNames() []string {
	return []string{"target-utilization", "qos-headroom", "queue-depth"}
}

// PolicyByName returns a built-in scaling policy with its defaults, or
// an error (wrapping names.ErrUnknown) listing the valid names.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "target-utilization":
		return TargetUtilization{}, nil
	case "qos-headroom":
		return QoSHeadroom{}, nil
	case "queue-depth":
		return QueueDepth{}, nil
	}
	return nil, names.Unknown("autoscale", "scaling policy", name, PolicyNames())
}

// Config parameterises a Controller.
type Config struct {
	// Policy proposes the desired count (required).
	Policy Policy
	// Min and Max bound the active count; Min >= 1, Max >= Min.
	Min, Max int
	// CooldownIntervals is the minimum number of intervals between a
	// scale event and the next scale-down (default 5). Scale-ups are
	// never delayed: latency-critical fleets eat a QoS violation for
	// every interval a needed node stays off, while a premature
	// scale-up only costs one node-interval of power.
	CooldownIntervals int
	// DownAfterIntervals is the hysteresis: the policy must desire a
	// smaller fleet for this many consecutive intervals before a
	// scale-down happens (default 3).
	DownAfterIntervals int
}

// Decision is a Controller verdict for one interval.
type Decision struct {
	// Target is the active count to run this interval with.
	Target int
	// Scaled reports whether Target differs from the previous count.
	Scaled bool
}

// Controller clamps a Policy's desires through bounds, cooldown, and
// hysteresis. It is stateful (cooldown clock, shrink streak) and not
// safe for concurrent use.
type Controller struct {
	cfg        Config
	lastChange int // interval of the last scale event
	scaledYet  bool
	downStreak int
}

// NewController validates the configuration.
func NewController(cfg Config) (*Controller, error) {
	switch {
	case cfg.Policy == nil:
		return nil, fmt.Errorf("autoscale: nil scaling policy")
	case cfg.Min < 1:
		return nil, fmt.Errorf("autoscale: min nodes %d < 1", cfg.Min)
	case cfg.Max < cfg.Min:
		return nil, fmt.Errorf("autoscale: max nodes %d < min nodes %d", cfg.Max, cfg.Min)
	case cfg.CooldownIntervals < 0:
		return nil, fmt.Errorf("autoscale: negative cooldown %d", cfg.CooldownIntervals)
	case cfg.DownAfterIntervals < 0:
		return nil, fmt.Errorf("autoscale: negative hysteresis %d", cfg.DownAfterIntervals)
	}
	if cfg.CooldownIntervals == 0 {
		cfg.CooldownIntervals = 5
	}
	if cfg.DownAfterIntervals == 0 {
		cfg.DownAfterIntervals = 3
	}
	return &Controller{cfg: cfg}, nil
}

// Policy returns the wrapped scaling policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// Decide runs one scaling decision. ctx.Active must hold the current
// active count; the caller applies the returned target before splitting
// the interval's load.
func (c *Controller) Decide(ctx Context) Decision {
	desired := c.cfg.Policy.Desired(ctx)
	if desired < c.cfg.Min {
		desired = c.cfg.Min
	}
	if desired > c.cfg.Max {
		desired = c.cfg.Max
	}
	target := ctx.Active
	switch {
	case desired > ctx.Active:
		c.downStreak = 0
		target = desired
	case desired < ctx.Active:
		c.downStreak++
		cooled := !c.scaledYet || ctx.Interval-c.lastChange >= c.cfg.CooldownIntervals
		if c.downStreak >= c.cfg.DownAfterIntervals && cooled {
			c.downStreak = 0
			target = desired
		}
	default:
		c.downStreak = 0
	}
	if target != ctx.Active {
		c.lastChange = ctx.Interval
		c.scaledYet = true
		return Decision{Target: target, Scaled: true}
	}
	return Decision{Target: ctx.Active}
}

// Stats counts autoscaler activity over a run; the cluster layer
// accumulates it.
type Stats struct {
	// Ups and Downs count scale events (an event may add or remove more
	// than one node).
	Ups, Downs int
	// NodesAdded and NodesRemoved count nodes across those events.
	NodesAdded, NodesRemoved int
	// NodeIntervals is the active node-intervals consumed — the
	// fleet-size analogue of energy, and what elasticity saves.
	NodeIntervals int
	// PeakActive and MinActive bracket the active count over the run.
	PeakActive, MinActive int
	// WarmStarts counts activations seeded from the federation fleet
	// table; Flushes counts departing-node deltas folded into it.
	WarmStarts, Flushes int
}
