package cluster

import "hipster/internal/autoscale"

// AutoscaleOptions enable elastic fleet sizing: every monitoring
// interval, before the load is split, the coordinator asks a scaling
// policy how many nodes the interval's demand needs and grows or
// shrinks the active set within [MinNodes, MaxNodes]. The active set is
// always a prefix of the node roster — scale-up wakes the lowest-ID
// sleeping node, scale-down retires the highest-ID active one — which
// keeps runs bit-identical at any worker count (the whole decision runs
// in the coordinator's serial section) and makes capacity planning
// legible: node i is on iff the fleet is at least i+1 nodes tall.
//
// The datacenter-level load pattern stays a fraction of the FULL
// roster's capacity, so demand does not shrink when the fleet does.
//
// With federation enabled, scaling moves learned experience with the
// nodes: a node joining the fleet is warm-started from the federation
// coordinator's current fleet table (rl.Table.Absorb) instead of
// learning from zero, and a node leaving first flushes its unsynced
// table delta into the coordinator so its experience is not lost.
// Without federation, joining nodes keep whatever table they had
// (cold start on first activation).
type AutoscaleOptions struct {
	// Policy proposes the desired active count each interval (default
	// autoscale.TargetUtilization{} at its 0.7 default target).
	Policy autoscale.Policy
	// MinNodes and MaxNodes bound the active count (defaults 1 and the
	// roster size).
	MinNodes, MaxNodes int
	// InitialNodes is the active count before the first interval
	// (default MinNodes).
	InitialNodes int
	// CooldownIntervals is the minimum number of intervals between a
	// scale event and the next scale-down; scale-ups are immediate
	// (default 5).
	CooldownIntervals int
	// DownAfterIntervals is the hysteresis: the policy must desire a
	// smaller fleet for this many consecutive intervals before a
	// scale-down happens (default 3).
	DownAfterIntervals int
	// WarmupIntervals and WarmupFactor model activation cost, which
	// only the request-level fleet (clusterdes) does: a woken node
	// spends WarmupIntervals intervals serving at WarmupFactor of its
	// service rate, in [0, 1) (0 serves nothing). Both default to 0, a
	// node that joins warm; the interval-mode cluster rejects any other
	// value.
	WarmupIntervals int
	WarmupFactor    float64
}

// autoscaleStep fills the scaler's roster, runs one scaling decision
// and applies it. Runs in the coordinator's serial section, before the
// interval's load is split, so the new active set serves the demand
// that triggered it.
func (c *Cluster) autoscaleStep(t, totalRPS float64) error {
	roster := c.scaler.Roster()
	for i, n := range c.nodes {
		roster[i] = n.state.ScaleInfo(n.state.LastBacklog)
	}
	interval := c.clock.Steps()
	d := c.scaler.Decide(interval, t, totalRPS, c.active)
	if !d.Scaled {
		return nil
	}
	from := c.active
	c.active = d.Target
	return c.scaler.Apply(from, d.Target, interval, c.fed, c.join, c.leave)
}

// join is interval mode's per-node half of an activation; Scaler.Apply
// calls it after the node's warm-start.
func (c *Cluster) join(id int) { c.nodes[id].state.Active = true }

// leave is interval mode's per-node half of a deactivation; Scaler.Apply
// calls it after the node's flush.
func (c *Cluster) leave(id int) {
	n := c.nodes[id]
	n.state.Active = false
	// A powered-off node does not keep a request queue alive: whatever
	// backlog it was draining is abandoned now rather than resurfacing
	// as a phantom latency spike (and a spurious QoS violation) when
	// the node rejoins.
	n.eng.DropBacklog()
	n.state.Forget()
}

// AutoscaleStats returns the autoscaler's activity counters; ok is
// false when autoscaling is disabled.
func (c *Cluster) AutoscaleStats() (stats autoscale.Stats, ok bool) {
	if c.scaler == nil {
		return autoscale.Stats{}, false
	}
	stats = c.scaler.Stats()
	stats.NodeIntervals = c.nodeIntervals
	return stats, true
}

// ActiveNodes returns the current active-node count (the full roster
// size when autoscaling is disabled).
func (c *Cluster) ActiveNodes() int { return c.active }
