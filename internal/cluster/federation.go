package cluster

import (
	"errors"
	"fmt"

	"hipster/internal/federation"
	"hipster/internal/policy"
	"hipster/internal/rl"
)

// FederationOptions enable fleet-wide sharing of the per-node RL lookup
// tables: every SyncEvery monitoring intervals the cluster coordinator
// extracts each federated node's table delta (updates since its last
// sync), merges them under the configured policy, and broadcasts the
// merged fleet table back to every federated node. The whole round runs
// serially in the coordinator between node steps, so federated runs
// remain bit-identical for any worker count.
type FederationOptions struct {
	// SyncEvery is the number of monitoring intervals between sync
	// rounds (default DefaultSyncInterval).
	SyncEvery int
	// Merge selects the table merge policy (default
	// federation.VisitWeighted).
	Merge federation.MergePolicy
	// StalenessIntervals is the staleness bound K: a node whose
	// accumulated delta spans more than K intervals has it discarded
	// instead of merged (it still receives the broadcast). 0 disables
	// the bound. When set, it must be at least SyncEvery — a tighter
	// bound would discard every delta.
	StalenessIntervals int
	// Participation, when non-nil, gates which federated nodes take
	// part in the sync round at a given interval — modelling
	// partitions, maintenance windows, or slow links. An absent node
	// neither reports nor receives the broadcast; it keeps learning
	// locally, and once its accumulated delta is older than the
	// staleness bound it is discarded at its next sync and the node
	// restarts from the fleet table. The function runs in the serial
	// coordinator section and must be a deterministic pure function of
	// its arguments, or runs lose reproducibility.
	Participation func(nodeID, interval int) bool
}

// DefaultSyncInterval is the number of monitoring intervals between
// federation sync rounds when FederationOptions.SyncEvery is unset.
const DefaultSyncInterval = 10

// Federation is the coordinator-side federation machinery shared by the
// interval-mode cluster and the request-level DES: the federation
// coordinator, the federated node set (every node whose policy exposes
// a live RL table), and each node's delta checkpoint. All methods run
// in the owning coordinator's serial section — they are not safe for
// concurrent use, and callers must not be stepping nodes while a round
// runs. Once its buffers have grown to a round's size, a round, a warm
// start and a flush allocate nothing: checkpoints are re-captured in
// place, deltas land in one cell buffer, and the fleet table is copied
// straight from the coordinator into each node's table.
type Federation struct {
	syncEvery   int
	participate func(nodeID, interval int) bool
	coord       *federation.Coordinator
	nodeIDs     []int                  // ascending; fixes report order
	providers   []policy.TableProvider // parallel to nodeIDs
	base        []rl.Checkpoint        // parallel to nodeIDs; held only here, so re-captured in place
	index       map[int]int            // node ID -> position in the slices above

	// cells holds every delta of the current round back to back, and
	// reports slices it, one report per node; both are truncated and
	// reused by every round and flush.
	cells   []rl.DeltaCell
	reports []federation.Report
}

// NewFederation resolves the options against the fleet's per-node
// policies (indexed by node id): every policy implementing
// policy.TableProvider joins the federation; their tables must agree on
// shape and action space. A nil entry is a node with no policy.
func NewFederation(opts FederationOptions, pols []policy.Policy) (*Federation, error) {
	f := &Federation{syncEvery: opts.SyncEvery, participate: opts.Participation}
	if f.syncEvery == 0 {
		f.syncEvery = DefaultSyncInterval
	}
	if f.syncEvery < 0 {
		return nil, errors.New("cluster: negative federation sync interval")
	}
	if opts.StalenessIntervals > 0 && opts.StalenessIntervals < f.syncEvery {
		return nil, fmt.Errorf("cluster: staleness bound %d is tighter than the sync interval %d and would discard every delta",
			opts.StalenessIntervals, f.syncEvery)
	}

	var ref *rl.Table
	var refID int
	f.index = make(map[int]int)
	for i, pol := range pols {
		prov, ok := pol.(policy.TableProvider)
		if !ok {
			continue
		}
		tab := prov.LiveTable()
		if ref == nil {
			ref, refID = tab, i
		} else if tab.NumStates() != ref.NumStates() || !sameActions(tab, ref) {
			return nil, fmt.Errorf("cluster: nodes %d and %d have incompatible tables; federated nodes must share one quantiser and action space", refID, i)
		}
		f.index[i] = len(f.nodeIDs)
		f.nodeIDs = append(f.nodeIDs, i)
		f.providers = append(f.providers, prov)
		f.base = append(f.base, tab.Checkpoint())
	}
	if ref == nil {
		return nil, errors.New("cluster: federation enabled but no node policy exposes an RL table")
	}

	coord, err := federation.New(federation.Config{
		Nodes:          len(pols),
		States:         ref.NumStates(),
		Actions:        ref.NumActions(),
		Merge:          opts.Merge,
		StalenessBound: opts.StalenessIntervals,
	})
	if err != nil {
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func sameActions(a, b *rl.Table) bool {
	if a.NumActions() != b.NumActions() {
		return false
	}
	for i := range a.NumActions() {
		if a.Action(i) != b.Action(i) {
			return false
		}
	}
	return true
}

// Due reports whether a sync round runs after the given (1-based)
// completed interval.
func (f *Federation) Due(interval int) bool {
	return interval%f.syncEvery == 0
}

// Sync runs one federation round: extract each participating node's
// delta since its checkpoint, merge, broadcast the fleet table back,
// and re-checkpoint. Absent nodes (Participation false) and nodes the
// autoscaler has deactivated are skipped on both legs — an absent node
// keeps its local table and its delta keeps ageing, to be merged (or
// discarded as stale) when it rejoins, while a deactivated node already
// flushed its delta on departure and is re-seeded on activation. Runs
// strictly serially; the caller must not be stepping nodes
// concurrently.
func (f *Federation) Sync(interval int, active func(nodeID int) bool) error {
	in := func(id int) bool {
		return active(id) && (f.participate == nil || f.participate(id, interval))
	}
	f.cells, f.reports = f.cells[:0], f.reports[:0]
	for k, id := range f.nodeIDs {
		if !in(id) {
			continue
		}
		from := len(f.cells)
		var err error
		f.cells, err = f.providers[k].LiveTable().DeltaSince(f.base[k], f.cells)
		if err != nil {
			// The policy was reset to a differently-shaped table
			// mid-run; resynchronise from scratch rather than merging
			// a bogus delta.
			return fmt.Errorf("cluster: federation delta for node %d: %w", id, err)
		}
		// An append that moves the buffer leaves the earlier reports
		// on the old array, which holds their cells and is never
		// written again.
		f.reports = append(f.reports, federation.Report{Node: id, Delta: rl.Delta{Cells: f.cells[from:]}})
	}
	if err := f.coord.Sync(interval, f.reports); err != nil {
		return err
	}
	for k, id := range f.nodeIDs {
		if !in(id) {
			continue
		}
		tab := f.providers[k].LiveTable()
		if err := f.coord.BroadcastTo(tab); err != nil {
			return fmt.Errorf("cluster: federation broadcast to node %d: %w", id, err)
		}
		tab.CheckpointInto(&f.base[k])
	}
	return nil
}

// WarmStart seeds an activating node's policy with the coordinator's
// current fleet table, so a node joining the fleet exploits the whole
// fleet's experience instead of learning from zero. The node's
// staleness clock resets too: holding a fresh copy of the fleet table
// is a sync, and without the reset the node's first post-rejoin delta
// would be aged across its sleep and wrongly discarded as stale.
// Returns false when the node is not federated (no table-bearing
// policy): it cold-starts with whatever table it holds.
func (f *Federation) WarmStart(id, interval int) (bool, error) {
	k, ok := f.index[id]
	if !ok {
		return false, nil
	}
	tab := f.providers[k].LiveTable()
	if err := f.coord.BroadcastTo(tab); err != nil {
		return false, err
	}
	if err := f.coord.MarkSynced(id, interval); err != nil {
		return false, err
	}
	tab.CheckpointInto(&f.base[k])
	return true, nil
}

// Flush folds a departing node's unsynced table delta into the
// coordinator before deactivation, so the experience it gathered since
// its last sync round is not lost with it. The single-report round
// counts toward federation.Stats like any other (and the staleness
// bound applies: a node that went dark past K intervals has its final
// delta discarded too). Returns whether a non-empty delta was handed
// to the coordinator.
func (f *Federation) Flush(id, interval int) (bool, error) {
	k, ok := f.index[id]
	if !ok {
		return false, nil
	}
	tab := f.providers[k].LiveTable()
	var err error
	if f.cells, err = tab.DeltaSince(f.base[k], f.cells[:0]); err != nil {
		return false, err
	}
	tab.CheckpointInto(&f.base[k])
	if len(f.cells) == 0 {
		return false, nil
	}
	f.reports = append(f.reports[:0], federation.Report{Node: id, Delta: rl.Delta{Cells: f.cells}})
	if err := f.coord.Sync(interval, f.reports); err != nil {
		return false, err
	}
	return true, nil
}

// Stats returns the coordinator-side federation counters.
func (f *Federation) Stats() federation.Stats { return f.coord.Stats() }
