package cluster

import (
	"fmt"
	"math"

	"hipster/internal/autoscale"
	"hipster/internal/loadgen"
	"hipster/internal/names"
	"hipster/internal/telemetry"
)

// NodeState is the per-node feedback a splitter may consult when carving
// the fleet-level load. All fields describe the previous interval; they
// are zero (with Stepped false) before the first interval, and are
// cleared when an autoscaled node is deactivated, so a node rejoining
// the fleet reads as fresh rather than reporting stale load. Both
// fleets write them through Observe and clear them through Forget.
type NodeState struct {
	ID          int
	CapacityRPS float64 // node capacity at 100% load
	Active      bool    // in the active set (always true without autoscaling)

	Stepped         bool // at least one interval has run
	LastOfferedRPS  float64
	LastAchievedRPS float64
	LastBacklog     float64
	LastTailLatency float64
	LastTarget      float64
}

// Observe records the sample of the interval the node just ran as its
// feedback for the next: both fleets call it for every node they
// stepped, the cluster DES also for a down node's dead sample.
func (n *NodeState) Observe(s telemetry.Sample) {
	n.Stepped = true
	n.LastOfferedRPS = s.OfferedRPS
	n.LastAchievedRPS = s.AchievedRPS
	n.LastBacklog = s.Backlog
	n.LastTailLatency = s.TailLatency
	n.LastTarget = s.Target
}

// Forget clears the feedback Observe wrote, when a node leaves the
// fleet or crashes: by the time it serves again its last interval is
// arbitrarily old, and splitters and scaling policies must treat it as
// fresh rather than act on stale load or QoS readings.
func (n *NodeState) Forget() {
	*n = NodeState{ID: n.ID, CapacityRPS: n.CapacityRPS, Active: n.Active}
}

// ScaleInfo returns the node as a scaling policy sees it, with
// queueDepth as its queue-depth signal: the cluster DES passes its
// live queue length, and interval mode, which has no per-request
// queue, its carried backlog — the analogue that lets the queue-depth
// policy degrade gracefully outside DES mode.
func (n NodeState) ScaleInfo(queueDepth float64) autoscale.NodeInfo {
	return autoscale.NodeInfo{
		ID:              n.ID,
		CapacityRPS:     n.CapacityRPS,
		Active:          n.Active,
		Stepped:         n.Stepped,
		LastOfferedRPS:  n.LastOfferedRPS,
		LastTailLatency: n.LastTailLatency,
		LastTarget:      n.LastTarget,
		LastQueueDepth:  queueDepth,
	}
}

// Overloaded reports whether the node violated its QoS target in the
// previous interval.
func (n NodeState) Overloaded() bool {
	return n.Stepped && n.LastTarget > 0 && n.LastTailLatency > n.LastTarget
}

// SplitContext is the input to one splitting decision. Nodes holds the
// ACTIVE nodes only (in ascending ID order): with autoscaling enabled,
// sleeping nodes are invisible to the splitter and receive no load.
type SplitContext struct {
	Interval int     // monitoring interval index, starting at 0
	T        float64 // interval start time, seconds
	TotalRPS float64 // fleet-level offered load this interval
	Nodes    []NodeState
}

// Splitter carves the datacenter-level offered load into per-node
// offered RPS each monitoring interval. Implementations must be
// deterministic pure functions of the context: the split runs serially
// in the cluster coordinator, so determinism here (plus per-node RNG
// streams) makes whole-cluster results independent of worker count.
type Splitter interface {
	Name() string
	// Split returns one offered-RPS value per context node, in node
	// order. Shares must be finite and non-negative, with a finite
	// sum; they need not sum exactly to TotalRPS (a splitter may shed
	// load), but the built-ins conserve it.
	Split(ctx SplitContext) []float64
}

// SplitChecked runs one boundary's split and checks the boundary's
// inputs, for the interval-mode cluster and the cluster DES alike:
// load, the pattern's load fraction at ctx.T, must pass
// loadgen.CheckLoad, and the splitter must return one finite,
// non-negative share per node of ctx, with a finite total. A non-finite
// input would otherwise hang a request-level run (an infinite or NaN
// arrival rate never reaches the next boundary), thin the DES's arrival
// rate to NaN through an infinite share total (the run silently offers
// nothing), or turn fleet energy into NaN. The error names the bad
// input; callers latch it.
func SplitChecked(sp Splitter, load float64, ctx SplitContext) ([]float64, error) {
	if err := loadgen.CheckLoad(load, ctx.T); err != nil {
		return nil, err
	}
	shares := sp.Split(ctx)
	if len(shares) != len(ctx.Nodes) {
		return nil, fmt.Errorf("splitter %q returned %d shares for %d active nodes",
			sp.Name(), len(shares), len(ctx.Nodes))
	}
	total := 0.0
	for i, s := range shares {
		if !(s >= 0) || math.IsInf(s, 1) {
			return nil, fmt.Errorf("splitter %q returned share %v for node %d; want a finite value >= 0",
				sp.Name(), s, i)
		}
		total += s
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("splitter %q returned shares summing to %v; want a finite total", sp.Name(), total)
	}
	return shares, nil
}

// RoundRobin dispatches requests to nodes in rotation, which at
// monitoring-interval granularity is an equal split of the offered load
// regardless of node capacity — the classic capacity-oblivious
// front-end.
type RoundRobin struct{}

// Name implements Splitter.
func (RoundRobin) Name() string { return "round-robin" }

// Split implements Splitter.
func (RoundRobin) Split(ctx SplitContext) []float64 {
	out := make([]float64, len(ctx.Nodes))
	if len(ctx.Nodes) == 0 {
		return out
	}
	share := ctx.TotalRPS / float64(len(ctx.Nodes))
	for i := range out {
		out[i] = share
	}
	return out
}

// WeightedByCapacity splits the offered load proportionally to each
// node's capacity, so heterogeneous nodes run at equal load fractions.
type WeightedByCapacity struct{}

// Name implements Splitter.
func (WeightedByCapacity) Name() string { return "weighted-by-capacity" }

// Split implements Splitter.
func (WeightedByCapacity) Split(ctx SplitContext) []float64 {
	return splitByWeight(ctx, func(n NodeState) float64 { return n.CapacityRPS })
}

// LeastLoaded splits the offered load proportionally to each node's
// free capacity as observed last interval (capacity minus offered load,
// floored at a small reserve), halving the share of nodes that violated
// QoS. Before the first interval it falls back to capacity weighting.
// This is the feedback-driven front-end of cluster schedulers that
// steer load away from stragglers.
type LeastLoaded struct {
	// ReserveFrac floors every node's weight at this fraction of its
	// capacity so no node is starved entirely (default 0.02).
	ReserveFrac float64
}

// Name implements Splitter.
func (LeastLoaded) Name() string { return "least-loaded" }

// Split implements Splitter.
func (l LeastLoaded) Split(ctx SplitContext) []float64 {
	reserve := l.ReserveFrac
	if reserve <= 0 {
		reserve = 0.02
	}
	return splitByWeight(ctx, func(n NodeState) float64 {
		if !n.Stepped {
			return n.CapacityRPS
		}
		head := n.CapacityRPS - n.LastOfferedRPS
		if head < reserve*n.CapacityRPS {
			head = reserve * n.CapacityRPS
		}
		if n.Overloaded() {
			head /= 2
		}
		return head
	})
}

// splitByWeight distributes ctx.TotalRPS proportionally to the given
// per-node weight, falling back to an equal split when all weights are
// zero.
func splitByWeight(ctx SplitContext, weight func(NodeState) float64) []float64 {
	out := make([]float64, len(ctx.Nodes))
	if len(ctx.Nodes) == 0 {
		return out
	}
	var total float64
	for i, n := range ctx.Nodes {
		w := weight(n)
		if w < 0 {
			w = 0
		}
		out[i] = w
		total += w
	}
	if total <= 0 {
		share := ctx.TotalRPS / float64(len(ctx.Nodes))
		for i := range out {
			out[i] = share
		}
		return out
	}
	for i := range out {
		out[i] = ctx.TotalRPS * out[i] / total
	}
	return out
}

// SplitterNames lists the built-in splitters as accepted by
// SplitterByName.
func SplitterNames() []string {
	return []string{"round-robin", "weighted-by-capacity", "least-loaded"}
}

// SplitterByName returns a built-in splitter by its Name, or an error
// (wrapping names.ErrUnknown) listing the valid names.
func SplitterByName(name string) (Splitter, error) {
	switch name {
	case "round-robin":
		return RoundRobin{}, nil
	case "weighted-by-capacity":
		return WeightedByCapacity{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	}
	return nil, names.Unknown("cluster", "splitter", name, SplitterNames())
}
