package clusterdes

import "hipster/internal/names"

// Mitigation selects the straggler-mitigation policy the cluster DES
// front-end applies to in-flight requests. Unlike the interval-mode
// splitters, which can only steer the NEXT interval's load away from a
// straggler, a mitigation acts on individual requests while they wait —
// the re-issue/steal decisions run inside the deterministically-ordered
// event loop, so runs stay bit-identical for a given seed.
type Mitigation interface {
	Name() string
}

// None disables straggler mitigation: requests stay where the splitter
// routed them. This is the baseline the hedging example compares
// against.
type None struct{}

// Name implements Mitigation.
func (None) Name() string { return "none" }

// Hedged re-issues a request to a second node when it has been
// outstanding longer than a quantile of recently observed latencies,
// and takes whichever copy completes first (speculative replication,
// the classic "tied request" / hedged-request defense; cf. START,
// arXiv:2111.10241). The hedge delay is re-estimated every monitoring
// interval as the Quantile of the previous interval's fleet-wide
// sojourn times, so hedging self-regulates: in a healthy fleet only the
// slowest ~(1-Quantile) of requests spawn a copy.
type Hedged struct {
	// Quantile of the previous interval's latency distribution used as
	// the hedge delay, in (0, 1) (default DefaultHedgeQuantile).
	Quantile float64
}

// DefaultHedgeQuantile is the hedge delay quantile Hedged and
// Predictive use when Quantile is unset: only the slowest ~5% of
// requests spawn a copy in a healthy fleet.
const DefaultHedgeQuantile = 0.95

// Name implements Mitigation.
func (Hedged) Name() string { return "hedged" }

// WorkStealing lets an idle node pull the oldest waiting request from
// the deepest queue in the fleet: whenever a server finishes with an
// empty local queue (and at every interval boundary, so fully idle
// nodes participate too), it steals from the active node with the most
// queued requests. Stealing drains the queue a cold or straggling node
// has built instead of duplicating work the way hedging does.
type WorkStealing struct{}

// stealMinDepth is the minimum victim queue length worth stealing
// from: single-request queues are about to be served locally anyway,
// and stealing them would just bounce requests around.
const stealMinDepth = 2

// Name implements Mitigation.
func (WorkStealing) Name() string { return "work-stealing" }

// Predictive layers a slow-node detector on top of Hedged: the fleet
// keeps a per-node EWMA of the drain estimate (backlog over nominal
// capacity) from the telemetry it already merges each interval, and
// flags a node as suspect when its EWMA exceeds predThreshold times the
// fleet median (and a floor tied to the workload target, so an idle
// fleet never flags). Suspect nodes are drained by migration at every
// boundary, excluded as hedge/steal targets, and requests routed to
// them hedge after predHedgeFraction of the reactive delay — acting
// *before* the quantile signal observes a slow completion (the
// predict-then-mitigate discipline of START, arXiv:2111.10241).
type Predictive struct {
	// Quantile is the reactive hedge quantile inherited from Hedged, in
	// (0, 1) (default DefaultHedgeQuantile).
	Quantile float64
}

// The predictive detector's design point.
const (
	// predAlpha is the EWMA smoothing factor in (0, 1]; larger values
	// react faster but flap more.
	predAlpha = 0.4
	// predThreshold is the suspicion multiplier over the fleet-median
	// drain estimate, > 1.
	predThreshold = 3
	// predHedgeFraction scales the reactive hedge delay for requests
	// primary-routed to a suspect node, in (0, 1].
	predHedgeFraction = 0.25
)

// Name implements Mitigation.
func (Predictive) Name() string { return "predictive" }

// MitigationNames lists the built-in mitigations as accepted by
// MitigationByName.
func MitigationNames() []string {
	return []string{"none", "hedged", "work-stealing", "predictive"}
}

// MitigationByName returns a built-in mitigation, or an error
// (wrapping names.ErrUnknown) listing the valid names. hedgeQuantile
// sets the hedge delay quantile of the two mitigations that hedge
// (hedged and predictive), and the others ignore it; a zero quantile is
// resolved to DefaultHedgeQuantile when the fleet is built, not here.
func MitigationByName(name string, hedgeQuantile float64) (Mitigation, error) {
	switch name {
	case "none":
		return None{}, nil
	case "hedged":
		return Hedged{Quantile: hedgeQuantile}, nil
	case "work-stealing":
		return WorkStealing{}, nil
	case "predictive":
		return Predictive{Quantile: hedgeQuantile}, nil
	}
	return nil, names.Unknown("clusterdes", "mitigation", name, MitigationNames())
}
