// Package federation shares Hipster's learned lookup tables across a
// fleet. PR 1's cluster layer runs N independent learners that each
// rediscover the same state machine; a federation Coordinator instead
// periodically collects per-node table deltas (visit-weighted value
// updates since the node's last sync), merges them into one fleet table
// under a pluggable policy, and broadcasts the merged table back, so
// every node exploits the whole fleet's experience. A staleness bound K
// discards deltas from nodes that went too long without syncing, so a
// long-partitioned node cannot drag the fleet table back toward stale
// estimates (cf. stale-gradient handling in federated/asynchronous
// learning).
//
// The coordinator is plain serial code operating on value/visit
// matrices: callers (the cluster layer) invoke Sync from exactly one
// goroutine, which keeps federated cluster runs bit-identical for any
// worker count. The fleet table never leaves the coordinator on the
// sync path: BroadcastTo copies it straight into a node's table.
package federation

import (
	"fmt"

	"hipster/internal/names"
	"hipster/internal/rl"
)

// MergePolicy selects how per-node deltas fold into the fleet table.
type MergePolicy int

const (
	// VisitWeighted averages reported values into the fleet value,
	// weighting each contribution by its visit count — the federated-
	// averaging analogue for tabular Q-learning. The default.
	VisitWeighted MergePolicy = iota
	// MaxConfidence takes, per cell, the value of the reporter with the
	// most updates this round (ties keep the earlier reporter), on the
	// theory that the node that exercised a bucket hardest has the best
	// estimate for it.
	MaxConfidence
	// NewestWins takes, per cell, the most recently reported value:
	// within a round, the last reporter in report order overwrites.
	NewestWins
)

// String names the policy as accepted by MergePolicyByName.
func (p MergePolicy) String() string {
	switch p {
	case MaxConfidence:
		return "max-confidence"
	case NewestWins:
		return "newest-wins"
	}
	return "visit-weighted"
}

// MergePolicyNames lists the merge policies as accepted by
// MergePolicyByName.
func MergePolicyNames() []string {
	return []string{"visit-weighted", "max-confidence", "newest-wins"}
}

// MergePolicyByName parses a policy name, or returns an error (wrapping
// names.ErrUnknown) listing the valid names.
func MergePolicyByName(name string) (MergePolicy, error) {
	switch name {
	case "visit-weighted":
		return VisitWeighted, nil
	case "max-confidence":
		return MaxConfidence, nil
	case "newest-wins":
		return NewestWins, nil
	}
	return 0, names.Unknown("federation", "merge policy", name, MergePolicyNames())
}

// Config sizes and parameterises a coordinator.
type Config struct {
	// Nodes is the fleet size; reports carry node IDs in [0, Nodes).
	Nodes int
	// States and Actions fix the table shape every report must match.
	States  int
	Actions int
	// Merge selects the merge policy (zero value: VisitWeighted).
	Merge MergePolicy
	// StalenessBound is K, in monitoring intervals: a report from a
	// node whose last accepted sync is more than K intervals old is
	// discarded instead of merged (the node still receives the
	// broadcast and restarts from the fleet table). 0 disables the
	// bound.
	StalenessBound int
}

// Report is one node's contribution to a sync round.
type Report struct {
	Node  int
	Delta rl.Delta
}

// Broadcast is a copy of the merged fleet table, as Table returns it.
// The matrices are copies; callers may retain them.
type Broadcast struct {
	Values [][]float64
	Visits [][]int
}

// Stats counts coordinator activity over the run.
type Stats struct {
	// Rounds is the number of completed sync rounds.
	Rounds int
	// Reports is the number of node reports received.
	Reports int
	// MergedCells is the number of delta cells folded into the fleet
	// table.
	MergedCells int
	// MergedVisits is the total fleet experience absorbed (sum of
	// per-cell update counts over merged deltas).
	MergedVisits int
	// StaleDropped is the number of reports discarded by the staleness
	// bound.
	StaleDropped int
}

// Coordinator owns the fleet table and runs the serial merge rounds.
// The fleet table is flat and row-major, like rl.Table's: cell
// (state, action) sits at index state·Actions+action.
type Coordinator struct {
	cfg    Config
	vals   []float64
	visits []int
	// lastSync is the interval of each node's last accepted (or
	// staleness-reset) report; nodes start "synced" at interval 0,
	// when every table is zero.
	lastSync []int
	// roundMax is per-round scratch for MaxConfidence, in the table's
	// layout: the largest per-cell contribution folded so far in the
	// current round.
	roundMax []int
	stats    Stats
}

// New validates the configuration and builds a coordinator with a
// zeroed fleet table.
func New(cfg Config) (*Coordinator, error) {
	switch {
	case cfg.Nodes <= 0:
		return nil, fmt.Errorf("federation: non-positive fleet size %d", cfg.Nodes)
	case cfg.States <= 0 || cfg.Actions <= 0:
		return nil, fmt.Errorf("federation: invalid table shape %dx%d", cfg.States, cfg.Actions)
	case cfg.StalenessBound < 0:
		return nil, fmt.Errorf("federation: negative staleness bound %d", cfg.StalenessBound)
	}
	if cfg.Merge < VisitWeighted || cfg.Merge > NewestWins {
		return nil, fmt.Errorf("federation: invalid merge policy %d", cfg.Merge)
	}
	cells := cfg.States * cfg.Actions
	return &Coordinator{
		cfg:      cfg,
		vals:     make([]float64, cells),
		visits:   make([]int, cells),
		lastSync: make([]int, cfg.Nodes),
		roundMax: make([]int, cells),
	}, nil
}

// Stats returns the activity counters so far.
func (c *Coordinator) Stats() Stats { return c.stats }

// MarkSynced resets a node's staleness clock to the given interval
// without a report. Callers use it when a node's table was externally
// set to the fleet table (the autoscaler's warm-start on activation):
// for staleness purposes that is a sync, and without the reset the
// node's first real delta after rejoining would be aged from before
// its sleep and wrongly discarded.
func (c *Coordinator) MarkSynced(node, interval int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("federation: mark-synced for unknown node %d (fleet size %d)", node, c.cfg.Nodes)
	}
	if interval < c.lastSync[node] {
		return fmt.Errorf("federation: node %d marked synced at interval %d before its last sync %d", node, interval, c.lastSync[node])
	}
	c.lastSync[node] = interval
	return nil
}

// Table returns a copy of the current fleet table, one row per state,
// for inspection; the sync path uses BroadcastTo, which makes no copy
// of its own.
func (c *Coordinator) Table() Broadcast {
	return Broadcast{Values: rl.Rows(c.vals, c.cfg.Actions), Visits: rl.Rows(c.visits, c.cfg.Actions)}
}

// BroadcastTo overwrites tab's values and visit counts with the fleet
// table: rl.Table.Absorb copies both flat matrices, so tab never
// aliases them. It is how a sync round, a warm start or a revival
// hands the fleet table to a node, and it allocates nothing.
func (c *Coordinator) BroadcastTo(tab *rl.Table) error {
	if tab.NumStates() != c.cfg.States || tab.NumActions() != c.cfg.Actions {
		return fmt.Errorf("federation: broadcast of a %dx%d fleet table to a %dx%d table",
			c.cfg.States, c.cfg.Actions, tab.NumStates(), tab.NumActions())
	}
	return tab.Absorb(c.vals, c.visits)
}

// Sync runs one merge round at the given monitoring interval: it folds
// the reports into the fleet table in the order given (the cluster
// layer reports nodes in ascending ID order, which fixes the NewestWins
// and tie-break semantics). The caller then hands the merged table to
// each participating node with BroadcastTo. Reports older than the
// staleness bound are discarded; the node's clock still resets, so it
// resumes from the broadcast fleet table.
func (c *Coordinator) Sync(interval int, reports []Report) error {
	clear(c.roundMax)
	for _, r := range reports {
		if r.Node < 0 || r.Node >= c.cfg.Nodes {
			return fmt.Errorf("federation: report from unknown node %d (fleet size %d)", r.Node, c.cfg.Nodes)
		}
		if interval < c.lastSync[r.Node] {
			return fmt.Errorf("federation: node %d reported interval %d before its last sync %d", r.Node, interval, c.lastSync[r.Node])
		}
		c.stats.Reports++
		age := interval - c.lastSync[r.Node]
		c.lastSync[r.Node] = interval
		if c.cfg.StalenessBound > 0 && age > c.cfg.StalenessBound {
			c.stats.StaleDropped++
			continue
		}
		if err := c.merge(r.Delta); err != nil {
			return fmt.Errorf("federation: node %d: %w", r.Node, err)
		}
	}
	c.stats.Rounds++
	return nil
}

// merge folds one delta into the fleet table under the configured
// policy. Visit counts always accumulate — they track total fleet
// experience per cell regardless of which value estimate won.
func (c *Coordinator) merge(d rl.Delta) error {
	for _, cell := range d.Cells {
		if cell.State < 0 || cell.State >= c.cfg.States || cell.Action < 0 || cell.Action >= c.cfg.Actions {
			return fmt.Errorf("delta cell (%d,%d) outside %dx%d table", cell.State, cell.Action, c.cfg.States, c.cfg.Actions)
		}
		if cell.Visits <= 0 {
			return fmt.Errorf("delta cell (%d,%d) has non-positive visits %d", cell.State, cell.Action, cell.Visits)
		}
		i := cell.State*c.cfg.Actions + cell.Action
		have := c.visits[i]
		switch c.cfg.Merge {
		case MaxConfidence:
			// The reporter with the most updates this round wins the
			// cell; sequential strict > keeps the earlier reporter on
			// ties.
			if cell.Visits > c.roundMax[i] {
				c.vals[i] = cell.Value
				c.roundMax[i] = cell.Visits
			}
		case NewestWins:
			c.vals[i] = cell.Value
		default: // VisitWeighted
			total := have + cell.Visits
			c.vals[i] = (float64(have)*c.vals[i] + float64(cell.Visits)*cell.Value) / float64(total)
		}
		c.visits[i] += cell.Visits
		c.stats.MergedCells++
		c.stats.MergedVisits += cell.Visits
	}
	return nil
}
