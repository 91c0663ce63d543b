package cluster

import (
	"fmt"

	"hipster/internal/autoscale"
	"hipster/internal/federation"
)

// Scaler is the coordinator-side autoscale machinery shared by the
// interval-mode cluster and the request-level DES: the controller, the
// roster scratch its policy reads, and the scale-event counters. Its
// owner keeps the active set as a roster prefix and runs one step per
// interval: fill Roster, ask Decide for a target, resize its active
// set to the target, then hand the event to Apply, which runs the
// federation half of the protocol and calls the owner's per-node join
// and leave hooks. All methods run in the owner's serial section; they
// are not safe for concurrent use.
type Scaler struct {
	ctl    *autoscale.Controller
	roster []autoscale.NodeInfo
	stats  autoscale.Stats
	floor  int
}

// NewScaler resolves the options against an n-node roster (the policy
// default, the min/max/initial defaults and the roster bound) and
// builds the controller. It returns the scaler and the initial active
// count.
func NewScaler(opts AutoscaleOptions, n int) (*Scaler, int, error) {
	pol := opts.Policy
	if pol == nil {
		pol = autoscale.TargetUtilization{}
	}
	lo := opts.MinNodes
	if lo == 0 {
		lo = 1
	}
	hi := opts.MaxNodes
	if hi == 0 {
		hi = n
	}
	if hi > n {
		return nil, 0, fmt.Errorf("cluster: autoscale max nodes %d exceeds the %d-node roster", hi, n)
	}
	initial := opts.InitialNodes
	if initial == 0 {
		initial = lo
	}
	ctl, err := autoscale.NewController(autoscale.Config{
		Policy:             pol,
		Min:                lo,
		Max:                hi,
		CooldownIntervals:  opts.CooldownIntervals,
		DownAfterIntervals: opts.DownAfterIntervals,
	})
	if err != nil {
		return nil, 0, err
	}
	if initial < lo || initial > hi {
		return nil, 0, fmt.Errorf("cluster: autoscale initial nodes %d outside [%d, %d]", initial, lo, hi)
	}
	s := &Scaler{ctl: ctl, roster: make([]autoscale.NodeInfo, n), floor: lo}
	s.stats.PeakActive, s.stats.MinActive = initial, initial
	return s, initial, nil
}

// MinNodes returns the resolved minimum active count. The controller
// never targets fewer nodes, so the owner's active prefix always
// covers the first MinNodes nodes.
func (s *Scaler) MinNodes() int { return s.floor }

// Roster returns the policy's view of the fleet, one entry per node in
// ascending ID order, for the owner to fill before each Decide.
func (s *Scaler) Roster() []autoscale.NodeInfo { return s.roster }

// Decide runs one scaling decision over the filled roster, with active
// the owner's current active count and offeredRPS the demand signal it
// scales on.
func (s *Scaler) Decide(interval int, t, offeredRPS float64, active int) autoscale.Decision {
	return s.ctl.Decide(autoscale.Context{
		Interval:   interval,
		T:          t,
		OfferedRPS: offeredRPS,
		Nodes:      s.roster,
		Active:     active,
	})
}

// Apply runs one scale event from `from` to `to` active nodes, which
// differ (Decide reported Scaled). With federation (fed non-nil), each
// joining node is warm-started from the fleet table before join is
// called for it, and each leaving node flushes its unsynced delta
// before leave is called for it; one fleet-table copy serves every
// activation of the event. The owner must already have resized its
// active set to `to`: the DES's leave hook migrates the departing
// node's queue, and only to survivors.
func (s *Scaler) Apply(from, to, interval int, fed *Federation, join, leave func(id int)) error {
	if to > from {
		var bc federation.Broadcast
		for id := from; id < to; id++ {
			if fed != nil {
				warmed, err := fed.WarmStart(id, interval, &bc)
				if err != nil {
					return fmt.Errorf("cluster: autoscale warm-start of node %d: %w", id, err)
				}
				if warmed {
					s.stats.WarmStarts++
				}
			}
			join(id)
		}
		s.stats.Ups++
		s.stats.NodesAdded += to - from
	} else {
		for id := to; id < from; id++ {
			if fed != nil {
				flushed, err := fed.Flush(id, interval)
				if err != nil {
					return fmt.Errorf("cluster: autoscale flush of node %d: %w", id, err)
				}
				if flushed {
					s.stats.Flushes++
				}
			}
			leave(id)
		}
		s.stats.Downs++
		s.stats.NodesRemoved += from - to
	}
	s.stats.PeakActive = max(s.stats.PeakActive, to)
	s.stats.MinActive = min(s.stats.MinActive, to)
	return nil
}

// Stats returns the scale-event counters. NodeIntervals stays zero:
// the owner counts the node-intervals it steps.
func (s *Scaler) Stats() autoscale.Stats { return s.stats }
