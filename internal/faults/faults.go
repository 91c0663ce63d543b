// Package faults generates deterministic fault schedules for the
// cluster DES: node crashes with state loss, slow-node degradation,
// network partitions, and spot-pool revocation with a notice window.
//
// A schedule is a pure function of (seed, roster size, horizon) — it is
// drawn up front from its own seeded sub-stream, so fault-enabled runs
// stay bit-identical at any worker count and the same faults hit the
// DES at every domain count. The revocation/notice model follows
// the transient-capacity discipline of CloudCoaster-style bursty
// schedulers; the slow-node events feed the predictive mitigation of
// START-style straggler predictors (arXiv:2111.10241).
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind identifies one fault-schedule transition.
type Kind int8

const (
	// Crash takes a node down instantly. Its queued and in-flight work
	// is lost (the DES records the Lost disposition), and its policy
	// state is gone: the node rejoins cold, or warm-started from the
	// federation table when federation is on.
	Crash Kind = iota
	// Recover returns a crashed node to service.
	Recover
	// SlowStart degrades a node's service rate: every service time is
	// divided by Event.Factor in (0, 1] until SlowEnd.
	SlowStart
	// SlowEnd restores the degraded node's nominal service rate.
	SlowEnd
	// PartitionStart severs the fleet into sides [0, Cut) and
	// [Cut, nodes): cross-side steals, hedges, migrations, and
	// federation syncs stop until PartitionEnd.
	PartitionStart
	// PartitionEnd heals the partition; nodes that missed federation
	// syncs flush their accumulated deltas at the next boundary.
	PartitionEnd
	// RevokeNotice opens a spot node's notice window: the node stops
	// accepting new work and drains its queue via migration.
	RevokeNotice
	// Revoke takes the spot node down when the notice window expires.
	Revoke
	// Restore returns a revoked spot node to the pool.
	Restore
)

var kindNames = [...]string{
	Crash:          "crash",
	Recover:        "recover",
	SlowStart:      "slow-start",
	SlowEnd:        "slow-end",
	PartitionStart: "partition-start",
	PartitionEnd:   "partition-end",
	RevokeNotice:   "revoke-notice",
	Revoke:         "revoke",
	Restore:        "restore",
}

// String names the kind for error messages and reports.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int8(k))
	}
	return kindNames[k]
}

// Event is one scheduled transition. Interval is the monitoring-interval
// boundary (1-based: the boundary closing interval k) at which the
// transition fires, in the coordinator's serial section.
type Event struct {
	Interval int
	Kind     Kind
	// Node is the target node, or -1 for partition events.
	Node int
	// Factor is the SlowStart service-rate multiplier in (0, 1].
	Factor float64
	// Cut is the PartitionStart boundary: sides are [0, Cut) and
	// [Cut, nodes).
	Cut int
}

// Options parameterise schedule generation. All rates are per-node
// per-interval probabilities in [0, 1]; the zero value disables every
// fault class.
type Options struct {
	// CrashRate is the probability an up node crashes at a boundary.
	CrashRate float64
	// SlowRate is the probability an up node starts degrading;
	// SlowFactor is the service-rate multiplier it degrades to, in
	// (0, 1] (default 0.5 — half speed).
	SlowRate   float64
	SlowFactor float64
	// PartitionRate is the probability a partition opens at a boundary
	// when none is active.
	PartitionRate float64
	// SpotFraction marks the top ceil(fraction × nodes) node IDs as
	// spot capacity, each revoked with probability RevokeRate per
	// interval (default 0.02 when SpotFraction > 0) after a SpotNotice
	// interval drain window (default 2).
	SpotFraction float64
	RevokeRate   float64
	SpotNotice   int
	// DownIntervals is how long a crashed or revoked node stays down
	// (default 5); SlowIntervals and PartitionIntervals bound the
	// degraded and partitioned episodes (default 10 each).
	DownIntervals      int
	SlowIntervals      int
	PartitionIntervals int
	// Script, when non-empty, replaces generation entirely: the events
	// are validated, sorted, and used as-is. Rates are ignored.
	Script []Event
}

// Enabled reports whether the options inject any faults at all.
func (o *Options) Enabled() bool {
	if o == nil {
		return false
	}
	return o.CrashRate > 0 || o.SlowRate > 0 || o.PartitionRate > 0 ||
		o.SpotFraction > 0 || len(o.Script) > 0
}

// Resolve validates the options and fills documented defaults.
func Resolve(o Options) (Options, error) {
	rates := []struct {
		name string
		v    float64
	}{
		{"CrashRate", o.CrashRate},
		{"SlowRate", o.SlowRate},
		{"PartitionRate", o.PartitionRate},
		{"SpotFraction", o.SpotFraction},
		{"RevokeRate", o.RevokeRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return o, fmt.Errorf("faults: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if o.SlowFactor == 0 {
		o.SlowFactor = 0.5
	}
	if o.SlowFactor <= 0 || o.SlowFactor > 1 {
		return o, fmt.Errorf("faults: SlowFactor %v outside (0, 1]", o.SlowFactor)
	}
	if o.SpotNotice < 0 {
		return o, fmt.Errorf("faults: negative SpotNotice %d", o.SpotNotice)
	}
	if o.SpotNotice == 0 {
		o.SpotNotice = 2
	}
	if o.SpotFraction > 0 && o.RevokeRate == 0 {
		o.RevokeRate = 0.02
	}
	durs := []struct {
		name string
		v    *int
		def  int
	}{
		{"DownIntervals", &o.DownIntervals, 5},
		{"SlowIntervals", &o.SlowIntervals, 10},
		{"PartitionIntervals", &o.PartitionIntervals, 10},
	}
	for _, d := range durs {
		if *d.v == 0 {
			*d.v = d.def
		}
		if *d.v < 1 {
			return o, fmt.Errorf("faults: %s %d < 1", d.name, *d.v)
		}
	}
	return o, nil
}

// Schedule is the ordered event list one run executes.
type Schedule []Event

// Generate draws a schedule for a roster of nodes over the given number
// of monitoring intervals. Script, when present, is sorted, validated
// against the same state machine, and returned as-is. The schedule may
// extend past the horizon (a recovery scheduled beyond the last
// interval simply never fires).
func Generate(o Options, nodes, intervals int, rng *rand.Rand) (Schedule, error) {
	o, err := Resolve(o)
	if err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("faults: roster of %d nodes", nodes)
	}
	if len(o.Script) > 0 {
		s := make(Schedule, len(o.Script))
		copy(s, o.Script)
		sort.SliceStable(s, func(i, j int) bool { return s[i].Interval < s[j].Interval })
		if err := s.Validate(nodes, o); err != nil {
			return nil, err
		}
		return s, nil
	}

	// busyUntil is the first interval the node is eligible for a new
	// fault draw after a crash or revocation; slowUntil the same for a
	// degraded episode. Draw order is fixed — partition, then nodes
	// ascending with crash before revoke before slow — so the schedule
	// is a pure function of the RNG stream.
	var s Schedule
	busyUntil := make([]int, nodes)
	slowUntil := make([]int, nodes)
	spotFrom := nodes - int(math.Ceil(o.SpotFraction*float64(nodes)))
	partUntil := 0
	for k := 1; k <= intervals; k++ {
		if o.PartitionRate > 0 && nodes >= 2 && k >= partUntil {
			if rng.Float64() < o.PartitionRate {
				cut := 1 + rng.Intn(nodes-1)
				s = append(s,
					Event{Interval: k, Kind: PartitionStart, Node: -1, Cut: cut},
					Event{Interval: k + o.PartitionIntervals, Kind: PartitionEnd, Node: -1})
				partUntil = k + o.PartitionIntervals
			}
		}
		for id := 0; id < nodes; id++ {
			if k < busyUntil[id] {
				continue
			}
			if o.CrashRate > 0 && rng.Float64() < o.CrashRate {
				s = append(s,
					Event{Interval: k, Kind: Crash, Node: id},
					Event{Interval: k + o.DownIntervals, Kind: Recover, Node: id})
				busyUntil[id] = k + o.DownIntervals
				continue
			}
			if id >= spotFrom && o.RevokeRate > 0 && rng.Float64() < o.RevokeRate {
				s = append(s,
					Event{Interval: k, Kind: RevokeNotice, Node: id},
					Event{Interval: k + o.SpotNotice, Kind: Revoke, Node: id},
					Event{Interval: k + o.SpotNotice + o.DownIntervals, Kind: Restore, Node: id})
				busyUntil[id] = k + o.SpotNotice + o.DownIntervals
				continue
			}
			if k >= slowUntil[id] && o.SlowRate > 0 && rng.Float64() < o.SlowRate {
				s = append(s,
					Event{Interval: k, Kind: SlowStart, Node: id, Factor: o.SlowFactor},
					Event{Interval: k + o.SlowIntervals, Kind: SlowEnd, Node: id})
				slowUntil[id] = k + o.SlowIntervals
			}
		}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].Interval < s[j].Interval })
	return s, nil
}

// Validate replays the schedule against the fault state machine and
// reports the first illegal transition: events must be sorted by
// interval and fire at interval >= 1; a node must be up to crash or
// receive a revocation notice, down to recover or restore; a
// revocation must honor the notice window; slow and partition episodes
// must pair start with end; a partition cut must split the roster.
func (s Schedule) Validate(nodes int, o Options) error {
	const (
		up = iota
		downCrash
		draining
		downRevoke
	)
	state := make([]int, nodes)
	slow := make([]bool, nodes)
	noticeAt := make([]int, nodes)
	partActive := false
	last := 0
	for i, ev := range s {
		if ev.Interval < last {
			return fmt.Errorf("faults: event %d (%s) at interval %d after interval %d: schedule not sorted",
				i, ev.Kind, ev.Interval, last)
		}
		last = ev.Interval
		if ev.Interval < 1 {
			return fmt.Errorf("faults: event %d (%s) at interval %d before the first boundary", i, ev.Kind, ev.Interval)
		}
		switch ev.Kind {
		case PartitionStart:
			if partActive {
				return fmt.Errorf("faults: partition at interval %d while one is active", ev.Interval)
			}
			if ev.Cut < 1 || ev.Cut >= nodes {
				return fmt.Errorf("faults: partition cut %d does not split %d nodes", ev.Cut, nodes)
			}
			partActive = true
			continue
		case PartitionEnd:
			if !partActive {
				return fmt.Errorf("faults: partition heal at interval %d with no partition active", ev.Interval)
			}
			partActive = false
			continue
		}
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("faults: %s targets node %d of %d", ev.Kind, ev.Node, nodes)
		}
		switch ev.Kind {
		case Crash:
			if state[ev.Node] != up {
				return fmt.Errorf("faults: node %d crashed at interval %d while already down", ev.Node, ev.Interval)
			}
			state[ev.Node] = downCrash
		case Recover:
			if state[ev.Node] != downCrash {
				return fmt.Errorf("faults: node %d recovered at interval %d without a crash", ev.Node, ev.Interval)
			}
			state[ev.Node] = up
		case RevokeNotice:
			if state[ev.Node] != up {
				return fmt.Errorf("faults: node %d got a revocation notice at interval %d while down", ev.Node, ev.Interval)
			}
			state[ev.Node] = draining
			noticeAt[ev.Node] = ev.Interval
		case Revoke:
			if state[ev.Node] != draining {
				return fmt.Errorf("faults: node %d revoked at interval %d without a notice", ev.Node, ev.Interval)
			}
			if got := ev.Interval - noticeAt[ev.Node]; got < o.SpotNotice {
				return fmt.Errorf("faults: node %d revoked %d intervals after notice, %d promised",
					ev.Node, got, o.SpotNotice)
			}
			state[ev.Node] = downRevoke
		case Restore:
			if state[ev.Node] != downRevoke {
				return fmt.Errorf("faults: node %d restored at interval %d without a revocation", ev.Node, ev.Interval)
			}
			state[ev.Node] = up
		case SlowStart:
			if slow[ev.Node] {
				return fmt.Errorf("faults: node %d slowed at interval %d while already slow", ev.Node, ev.Interval)
			}
			if state[ev.Node] != up {
				return fmt.Errorf("faults: node %d slowed at interval %d while down", ev.Node, ev.Interval)
			}
			if ev.Factor <= 0 || ev.Factor > 1 {
				return fmt.Errorf("faults: node %d slow factor %v outside (0, 1]", ev.Node, ev.Factor)
			}
			slow[ev.Node] = true
		case SlowEnd:
			if !slow[ev.Node] {
				return fmt.Errorf("faults: node %d slow episode ended at interval %d without starting", ev.Node, ev.Interval)
			}
			slow[ev.Node] = false
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int8(ev.Kind))
		}
	}
	return nil
}
